// Shared plumbing of the repository benchmark: arguments, seeded key
// streams, windowed latencies and rates, thread fan-out, tracing spans, the
// report that prints the final JSON line, and the output checks that are
// computed apart from the library (the paper's Eq. 10 bound, reference
// sets). Per-op latencies and medians use vcf::LatencyHistogram and
// vcf::Quantile from src/metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "metrics/latency_histogram.hpp"
#include "metrics/stats.hpp"

namespace perfbench {

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

// --- Clock ------------------------------------------------------------------

inline std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) noexcept {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Keeps a computed value alive without letting the optimizer drop the work.
template <typename T>
inline void Keep(const T& value) noexcept {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- Keys -------------------------------------------------------------------

/// Key roles. Every role draws from its own stream, and streams are pairwise
/// disjoint (workload/key_streams.hpp), so a key of the miss role is never a
/// key of an insert role.
enum class Role : std::uint64_t {
  kFill = 1,      ///< keys inserted by the fill / prefill
  kMiss = 2,      ///< never-inserted keys for negative lookups
  kChurn = 3,     ///< fresh keys inserted by churn / mixed phases
  kChoice = 4,    ///< seeds per-thread choice generators
  kWire = 5,      ///< keys inserted over the wire
  kProbe = 6,     ///< fixed probe sets for round-trip checks
};

/// Seeded streams: the same seed gives the same keys. Per-thread streams
/// fold the thread index into the stream id.
class KeyStreams {
 public:
  explicit KeyStreams(std::uint64_t seed);
  std::uint64_t At(Role role, std::uint64_t i, unsigned thread = 0) const;
  /// Seed-independent stream, disjoint from every seeded stream. Used only
  /// where a run must attempt exactly the same failing operations on every
  /// seed (tiered-cold's write rounds).
  static std::uint64_t Fixed(Role role, std::uint64_t i, unsigned thread = 0);

 private:
  std::uint64_t base_;
};

/// Per-thread generator for op choices, seeded from a key stream.
using Rng = vcf::Xoshiro256;

// --- Latency ----------------------------------------------------------------

/// Open-loop latencies grouped into fixed windows of due time. A latency
/// quantile is taken per window and the median over windows is reported:
/// in an open loop one host stall (a descheduled vCPU) delays every request
/// queued behind it, so a whole-run p99 would measure the host's worst
/// stall, not the program. The worst window is reported beside it.
class WindowedLatency {
 public:
  explicit WindowedLatency(double window_s)
      : window_ns_(static_cast<std::uint64_t>(window_s * 1e9)) {}
  /// Offset added to later due times (open loops run in separate chunks).
  void SetBase(std::uint64_t base_ns) { base_ns_ = base_ns; }
  void Add(std::uint64_t due_offset_ns, std::uint64_t latency_ns) {
    const std::size_t w = (base_ns_ + due_offset_ns) / window_ns_;
    if (w >= windows_.size()) windows_.resize(w + 1);
    windows_[w].push_back(static_cast<std::uint32_t>(
        latency_ns > 0xFFFFFFFFull ? 0xFFFFFFFFull : latency_ns));
  }
  void Merge(const WindowedLatency& other);
  std::uint64_t count() const;
  /// Median over windows (with >= 1000 samples) of each window's quantile.
  double MedianWindowQuantile(double q) const;
  /// The largest per-window quantile.
  double WorstWindowQuantile(double q) const;

 private:
  std::vector<double> WindowQuantiles(double q) const;
  std::uint64_t window_ns_;
  std::uint64_t base_ns_ = 0;
  std::vector<std::vector<std::uint32_t>> windows_;
};

/// Operations completed per fixed time window of a closed-loop phase. The
/// reported rate is the median over whole windows, so a host stall that
/// hits a few windows does not move it. One instance per thread, all with
/// the same start; Merge() sums them window by window.
class WindowRates {
 public:
  WindowRates(std::uint64_t start_ns, double window_s, std::size_t windows)
      : start_ns_(start_ns),
        window_ns_(static_cast<std::uint64_t>(window_s * 1e9)),
        last_ns_(start_ns),
        ops_(windows, 0.0) {}
  /// Counts `ops` completed since the previous call (or the start), spread
  /// evenly over that interval, so a window's count has no granularity of
  /// the caller's chunk size. False once the phase is over.
  bool Add(std::uint64_t now_ns, std::uint64_t ops);
  void Merge(const WindowRates& other);
  /// Median window rate in Mops/s.
  double MedianMops() const;
  /// "min / median / max" window rates, for the report's notes.
  std::string Summary() const;

 private:
  std::uint64_t start_ns_;
  std::uint64_t window_ns_;
  std::uint64_t last_ns_;
  std::vector<double> ops_;
};

// --- Threads ----------------------------------------------------------------

/// CPUs this process may run on.
unsigned Nproc();

/// Runs fn(0..n-1) on n threads, thread 0 being the caller. Throws when n
/// exceeds Nproc(): the benchmark never oversubscribes the host.
void RunThreads(unsigned n, const std::function<void(unsigned)>& fn);

/// Reusable barrier for phase and round boundaries: spins briefly, then
/// sleeps.
class Barrier {
 public:
  explicit Barrier(unsigned n) : n_(n) {}
  void Wait();

 private:
  unsigned n_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> generation_{0};
};

// --- Tracing ----------------------------------------------------------------

/// One call into a layer's public function: which layer entry point, when
/// it started and ended, and the workload operation (phase-tagged index)
/// whose key it carried.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;
};

/// In-memory span store, one buffer per thread (no sharing on the hot
/// path), written out once at the end of the run. Each (thread, name) pair
/// keeps its first kMaxSpansPerName spans; later ones are only counted, so
/// a long phase cannot crowd out the spans of the layers traced after it.
/// Disabled tracers record nothing and cost one branch. Name() must be
/// called before the threads that record under the name start.
class Tracer {
 public:
  static constexpr std::uint32_t kMaxSpansPerName = 1u << 15;
  static constexpr std::size_t kMaxNames = 64;
  explicit Tracer(bool enabled);
  bool enabled() const noexcept { return enabled_; }
  std::uint32_t Name(const std::string& name);
  void Record(unsigned thread, std::uint32_t name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t op) noexcept {
    if (!enabled_) return;
    std::uint32_t& kept = kept_[thread][name];
    if (kept < kMaxSpansPerName) {
      ++kept;
      buffers_[thread].push_back({name, thread, start_ns, end_ns, op});
    } else {
      ++dropped_[thread];
    }
  }
  std::size_t SpanCount() const;
  std::size_t Dropped() const;
  /// Writes every span as TSV (name, thread, start, end, op).
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<std::vector<Span>> buffers_;
  std::vector<std::vector<std::uint32_t>> kept_;
  std::vector<std::size_t> dropped_;
};

/// Operation ids: phase in the top byte, per-thread op index below.
inline std::uint64_t OpId(unsigned phase, unsigned thread,
                          std::uint64_t i) noexcept {
  return (static_cast<std::uint64_t>(phase) << 56) |
         (static_cast<std::uint64_t>(thread) << 48) | i;
}

// --- Report -----------------------------------------------------------------

/// Collects metrics, per-op-type counts and check results, then prints the
/// human-readable summary and, last, the one-line JSON result.
class Report {
 public:
  void E2e(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Extra figures printed for people (not part of the JSON result).
  void Note(const std::string& line);
  /// Counts `attempted` operations of `op`, `failed` of which failed.
  void Ops(const std::string& op, std::uint64_t attempted,
           std::uint64_t failed);
  /// Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const noexcept { return violations_.empty(); }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  e2e() const noexcept {
    return e2e_;
  }
  /// Prints every line and the final JSON object (end-to-end metrics, or
  /// the per-layer ones when `trace`).
  void Print(bool trace) const;
  /// Writes the per-layer metrics and notes as JSON to `path`.
  bool WriteLayerJson(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer_;
  std::vector<std::string> notes_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops_;
  std::vector<std::string> checks_;
  std::vector<std::string> violations_;
};

// --- Host -------------------------------------------------------------------

double PeakRssMb();
double CurrentRssMb();
/// Provenance: nproc, CPU model, cache sizes, THP mode, the poller backend
/// the server's automatic choice resolves to, the wide-bucket probe arm,
/// build type, commit.
std::string Provenance(const Args& args);

// --- Checks computed apart from the library ---------------------------------

/// Eq. 5: probability of four distinct candidates for a balanced mask over
/// a `width`-bit offset domain.
double BalancedR(unsigned width);
/// Eq. 10: xi <= 1 - (1 - 2^-f)^((2r + 2) b alpha).
double Eq10Bound(unsigned f, double r, unsigned b, double alpha);
/// Sampling allowance for an FPR measured over n misses against bound p:
/// five standard deviations plus three counts.
double FprAllowance(double p, std::uint64_t n);

/// Fraction of `seconds` for one phase, never below 50 ms.
inline double Budget(const Args& a, double share) {
  const double s = a.seconds * share;
  return s < 0.05 ? 0.05 : s;
}

}  // namespace perfbench
