// The four workloads and the per-layer ledger sections that share their
// set-up code. A workload runs its timed phases and checks its outputs; a
// ledger section rebuilds the same structure from the same seed and times
// each layer's public entry points from the outside (traced runs only).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/filter.hpp"

namespace perfbench {

void LeafFill(const Args& args, Report& report, Tracer& tracer);
void StackMixed(const Args& args, Report& report, Tracer& tracer);
void TieredCold(const Args& args, Report& report, Tracer& tracer);
void ServeLoopback(const Args& args, Report& report, Tracer& tracer);

void LedgerLeaf(const Args& args, Report& report, Tracer& tracer);
void LedgerStack(const Args& args, Report& report, Tracer& tracer);
void LedgerTiered(const Args& args, Report& report, Tracer& tracer);
void LedgerServe(const Args& args, Report& report, Tracer& tracer);

// --- Helpers shared by the workloads ----------------------------------------

/// Runs `setup` `reps` times and returns its median wall time in seconds;
/// `teardown` (untimed) runs between repetitions, and the state the last
/// repetition built is the one the run uses.
double TimedSetup(int reps, const std::function<void()>& teardown,
                  const std::function<void()>& setup);

/// Spins until `due_ns`. Sleeping would add the wake-up delay of a halted
/// vCPU, which is large and erratic under a hypervisor, to every request.
void WaitUntil(std::uint64_t due_ns);

/// Open-loop pacing for one thread: request i is due at start + i/rate;
/// `send(i)` runs it, and its latency is measured from the due time, so a
/// stall also charges every request queued behind it. Stops when the next
/// request would be due after `budget_s` or `max_requests` were sent.
/// Returns the number of requests; `late_ns` gets the worst lateness of a
/// request's start behind its due time. Open loops run on at most two
/// threads: with every CPU spinning, any other runnable task preempts a
/// measured thread for a whole scheduler tick, and the p99 then reads the
/// host instead of the program.
std::uint64_t OpenLoop(double rate, double budget_s, std::uint64_t max_requests,
                       WindowedLatency& latency, std::uint64_t* late_ns,
                       const std::function<void(std::uint64_t)>& send);

/// Median ns per call of fn(i), i in [0, n), over `passes` untraced passes.
template <typename Fn>
double BulkNs(std::size_t n, Fn&& fn, int passes = 5) {
  std::vector<double> v;
  for (int p = 0; p < passes; ++p) {
    std::uint64_t acc = 0;
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) acc += static_cast<std::uint64_t>(fn(i));
    Keep(acc);
    v.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return vcf::Quantile(v, 0.5);
}

/// Median ns per call of each of `fns` over i in [0, n), with the passes
/// interleaved (each pass times every fn once), so drift in the host hits
/// every layer alike and their differences stay meaningful.
std::vector<double> InterleavedNs(
    std::size_t n, const std::vector<std::function<bool(std::size_t)>>& fns,
    int passes = 7);

/// Median over passes of the mean per-thread ns per call, `threads` threads
/// each calling fn(thread, i) for i in [0, n).
double ParallelNs(unsigned threads, std::size_t n,
                  const std::function<std::uint64_t(unsigned, std::size_t)>& fn,
                  int passes = 3);

/// One traced pass: a span per call of fn(i) under `name`.
template <typename Fn>
double TracedPass(Tracer& tracer, const std::string& name, unsigned phase,
                  std::size_t n, Fn&& fn) {
  if (!tracer.enabled()) return 0.0;
  const std::uint32_t id = tracer.Name(name);
  std::uint64_t acc = 0;
  const std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = NowNs();
    acc += static_cast<std::uint64_t>(fn(i));
    tracer.Record(0, id, s, NowNs(), OpId(phase, 0, i));
  }
  Keep(acc);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(n);
}

/// Share of `n` distinct never-inserted keys (a probe stream no phase
/// uses) that `f` answers true, looked up in batches. Phases cycle through
/// their key arrays, so their own misses are not independent samples.
double MissFpr(const vcf::Filter& f, const KeyStreams& keys, std::size_t n);

/// Gates `correct` on fpr <= bound + FprAllowance(bound, n).
void CheckFpr(Report& report, double fpr, std::size_t n, double bound,
              const std::string& what);

/// Throughput in millions of operations per second.
inline double Mops(std::uint64_t ops, double seconds) {
  return seconds <= 0.0 ? 0.0 : static_cast<double>(ops) / seconds * 1e-6;
}

/// Rate of a run that did `a_ops` at `a_mops` and `b_ops` at `b_mops`:
/// total operations over total time.
inline double CombinedMops(std::uint64_t a_ops, double a_mops,
                           std::uint64_t b_ops, double b_mops) {
  const double a = static_cast<double>(a_ops), b = static_cast<double>(b_ops);
  return (a + b) / (a / a_mops + b / b_mops);
}

/// Reports <prefix>_p50_us, and <prefix>_p99_us when `p99_metric`, as the
/// median over windows of each window's quantile. The open-loop p99 is a
/// note only: on the reference VM it reads the host's jitter floor, which
/// moved 3-17 us (in-process) and 58 us-2 ms (loopback) between runs.
void ReportLatency(Report& report, const std::string& prefix,
                   const WindowedLatency& latency, bool p99_metric);

}  // namespace perfbench
