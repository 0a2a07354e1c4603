#include "support/Stats.hpp"

#include <algorithm>
#include <numeric>

namespace codesign {

void Samples::add(double X) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Values.push_back(X);
  Sorted = false;
}

void Samples::merge(const Samples &Other) {
  if (this == &Other) {
    // Self-merge doubles the set; handle without double-locking (and
    // without passing self-iterators to insert).
    std::lock_guard<std::mutex> Lock(Mutex);
    const std::vector<double> Copy = Values;
    Values.insert(Values.end(), Copy.begin(), Copy.end());
    Sorted = false;
    return;
  }
  std::scoped_lock Lock(Mutex, Other.Mutex);
  Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  Sorted = false;
}

std::uint64_t Samples::count() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Values.size();
}

void Samples::ensureSortedLocked() const {
  if (!Sorted) {
    std::sort(Values.begin(), Values.end());
    Sorted = true;
  }
}

double Samples::mean() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Values.empty())
    return 0.0;
  return std::accumulate(Values.begin(), Values.end(), 0.0) /
         static_cast<double>(Values.size());
}

double Samples::min() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Values.empty())
    return 0.0;
  ensureSortedLocked();
  return Values.front();
}

double Samples::max() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Values.empty())
    return 0.0;
  ensureSortedLocked();
  return Values.back();
}

double Samples::percentile(double P) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Values.empty())
    return 0.0;
  ensureSortedLocked();
  if (P <= 0.0)
    return Values.front();
  if (P >= 100.0)
    return Values.back();
  const double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Rank);
  const double Frac = Rank - static_cast<double>(Lo);
  if (Lo + 1 >= Values.size())
    return Values.back();
  return Values[Lo] + Frac * (Values[Lo + 1] - Values[Lo]);
}

Counters &Counters::global() {
  static Counters Instance;
  return Instance;
}

void Counters::add(std::string_view Name, std::uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Values.find(Name);
  if (It == Values.end())
    Values.emplace(std::string(Name), Delta);
  else
    It->second += Delta;
}

std::uint64_t Counters::value(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Values.find(Name);
  return It == Values.end() ? 0 : It->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Counters::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return {Values.begin(), Values.end()};
}

void Counters::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Values.clear();
}

} // namespace codesign
