# Runs one figure bench at full size under one execution backend and checks
# that the BENCH_<name>.json it writes reproduces the committed report in
# bench/results. Invoked by the bench-rows ctest label:
#   cmake -DBENCH_EXE=... -DBENCH_NAME=... -DBACKEND=... -DCHECKER=...
#         -DCOMMITTED=... -DWORK_DIR=... -P RunBenchRows.cmake
foreach(Var BENCH_EXE BENCH_NAME BACKEND CHECKER COMMITTED WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "RunBenchRows.cmake: ${Var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(Json "${WORK_DIR}/BENCH_${BENCH_NAME}.json")
file(REMOVE "${Json}")
unset(ENV{CODESIGN_BENCH_SMOKE})
set(ENV{CODESIGN_BENCH_DIR} "${WORK_DIR}")
set(ENV{CODESIGN_EXEC_BACKEND} "${BACKEND}")

execute_process(COMMAND "${BENCH_EXE}" RESULT_VARIABLE BenchResult)
if(NOT BenchResult EQUAL 0)
  message(FATAL_ERROR "${BENCH_NAME} exited with ${BenchResult}")
endif()
if(NOT EXISTS "${Json}")
  message(FATAL_ERROR "${BENCH_NAME} did not write ${Json}")
endif()

execute_process(COMMAND "${CHECKER}" "${COMMITTED}" "${Json}"
  RESULT_VARIABLE CheckResult)
if(NOT CheckResult EQUAL 0)
  message(FATAL_ERROR "${Json} does not reproduce ${COMMITTED}")
endif()
