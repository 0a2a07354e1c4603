# Injected into the library's own top-level project through
# CMAKE_PROJECT_INCLUDE (see run.py). Once the top-level CMakeLists.txt has
# finished, it includes the benchmark's CMakeLists.txt (deferred calls may
# not add subdirectories), so the benchmark links the library targets
# built with the library's own flags and build type.
include_guard(GLOBAL)
get_filename_component(_perfbench_lists "${CMAKE_CURRENT_LIST_DIR}/../CMakeLists.txt" ABSOLUTE)
# Deferred arguments are expanded when the call runs: bake the path in now.
cmake_language(EVAL CODE "cmake_language(DEFER CALL include [[${_perfbench_lists}]])")
