// Measurement helpers shared by the workloads and their ledger sections.
#include <algorithm>
#include <memory>
#include <sstream>

#include "workloads.hpp"

namespace perfbench {

double TimedSetup(int reps, const std::function<void()>& teardown,
                  const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) teardown();
    const std::uint64_t t0 = NowNs();
    setup();
    times.push_back(SecondsSince(t0));
  }
  return vcf::Quantile(times, 0.5);
}

void WaitUntil(std::uint64_t due_ns) {
  while (NowNs() < due_ns) __builtin_ia32_pause();
}

std::uint64_t OpenLoop(double rate, double budget_s, std::uint64_t max_requests,
                       WindowedLatency& latency, std::uint64_t* late_ns,
                       const std::function<void(std::uint64_t)>& send) {
  const double interval_ns = 1e9 / rate;
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint64_t worst_late = 0;
  std::uint64_t i = 0;
  for (; i < max_requests; ++i) {
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    if (due >= end) break;
    WaitUntil(due);
    worst_late = std::max(worst_late, NowNs() - due);
    send(i);
    latency.Add(due - start, NowNs() - due);
  }
  if (late_ns != nullptr) *late_ns = std::max(*late_ns, worst_late);
  return i;
}

double MissFpr(const vcf::Filter& f, const KeyStreams& keys, std::size_t n) {
  constexpr std::size_t kChunk = 1024;
  constexpr std::uint64_t kFirst = std::uint64_t{1} << 32;  // past every probe set
  std::vector<std::uint64_t> batch(kChunk);
  std::unique_ptr<bool[]> res(new bool[kChunk]);
  std::uint64_t positives = 0;
  for (std::size_t at = 0; at < n; at += kChunk) {
    const std::size_t m = std::min(kChunk, n - at);
    for (std::size_t j = 0; j < m; ++j) batch[j] = keys.At(Role::kProbe, kFirst + at + j);
    f.ContainsBatch({batch.data(), m}, res.get());
    for (std::size_t j = 0; j < m; ++j) positives += res[j] ? 1 : 0;
  }
  return static_cast<double>(positives) / static_cast<double>(n);
}

void CheckFpr(Report& report, double fpr, std::size_t n, double bound,
              const std::string& what) {
  const double allowance = FprAllowance(bound, n);
  std::ostringstream s;
  s << "FPR " << fpr << " over " << n << " distinct misses <= " << what << " "
    << bound << " + " << allowance << " (five standard deviations)";
  report.Check(fpr <= bound + allowance, s.str());
}

std::vector<double> InterleavedNs(
    std::size_t n, const std::vector<std::function<bool(std::size_t)>>& fns,
    int passes) {
  std::vector<std::vector<double>> per(fns.size());
  for (int p = 0; p < passes; ++p) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      std::uint64_t acc = 0;
      const std::uint64_t t0 = NowNs();
      for (std::size_t i = 0; i < n; ++i) acc += fns[f](i) ? 1 : 0;
      Keep(acc);
      per[f].push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
    }
  }
  std::vector<double> out;
  for (auto& v : per) out.push_back(vcf::Quantile(v, 0.5));
  return out;
}

double ParallelNs(unsigned threads, std::size_t n,
                  const std::function<std::uint64_t(unsigned, std::size_t)>& fn,
                  int passes) {
  std::vector<double> per_pass;
  for (int p = 0; p < passes; ++p) {
    std::vector<double> ns(threads, 0.0);
    Barrier start(threads);
    RunThreads(threads, [&](unsigned t) {
      start.Wait();
      std::uint64_t acc = 0;
      const std::uint64_t t0 = NowNs();
      for (std::size_t i = 0; i < n; ++i) acc += fn(t, i);
      Keep(acc);
      ns[t] = static_cast<double>(NowNs() - t0) / static_cast<double>(n);
    });
    double sum = 0.0;
    for (double v : ns) sum += v;
    per_pass.push_back(sum / threads);
  }
  return vcf::Quantile(per_pass, 0.5);
}

void ReportLatency(Report& report, const std::string& prefix,
                   const WindowedLatency& latency, bool p99_metric) {
  const double p99 = latency.MedianWindowQuantile(0.99) * 1e-3;
  report.E2e(prefix + "_p50_us", latency.MedianWindowQuantile(0.50) * 1e-3, "us");
  if (p99_metric) report.E2e(prefix + "_p99_us", p99, "us");
  std::ostringstream s;
  s << prefix << " latency over " << latency.count()
    << " samples, medians over windows: p99 " << p99 << " us; worst window p99 "
    << latency.WorstWindowQuantile(0.99) * 1e-3 << " us";
  report.Note(s.str());
}

}  // namespace perfbench
