#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/random.hpp"
#include "server/poller.hpp"
#include "table/probe_engine.hpp"
#include "workload/key_streams.hpp"

namespace perfbench {

// --- Keys -------------------------------------------------------------------

namespace {
// Stream ids are 24 bits (key_streams.hpp): seeded streams live below
// kFixedBase, fixed streams at and above it. The low 12 bits carry
// role (4 bits) and thread (8 bits).
constexpr std::uint64_t kFixedBase = std::uint64_t{0xFFF} << 12;
std::uint64_t StreamLow(Role role, unsigned thread) {
  return (static_cast<std::uint64_t>(role) << 8) | (thread & 0xFF);
}
}  // namespace

KeyStreams::KeyStreams(std::uint64_t seed)
    : base_((vcf::Mix64(seed ^ 0xBE7C4B5EULL) % 0xFFF) << 12) {}

std::uint64_t KeyStreams::At(Role role, std::uint64_t i,
                             unsigned thread) const {
  return vcf::UniformKeyAt(base_ | StreamLow(role, thread), i);
}

std::uint64_t KeyStreams::Fixed(Role role, std::uint64_t i, unsigned thread) {
  return vcf::UniformKeyAt(kFixedBase | StreamLow(role, thread), i);
}

// --- Latency ----------------------------------------------------------------

void WindowedLatency::Merge(const WindowedLatency& other) {
  if (other.windows_.size() > windows_.size()) windows_.resize(other.windows_.size());
  for (std::size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].insert(windows_[w].end(), other.windows_[w].begin(),
                       other.windows_[w].end());
  }
}

std::uint64_t WindowedLatency::count() const {
  std::uint64_t n = 0;
  for (const auto& w : windows_) n += w.size();
  return n;
}

std::vector<double> WindowedLatency::WindowQuantiles(double q) const {
  std::vector<double> out;
  for (const auto& w : windows_) {
    if (w.size() < 1000) continue;
    out.push_back(vcf::Quantile(std::vector<double>(w.begin(), w.end()), q));
  }
  return out;
}

double WindowedLatency::MedianWindowQuantile(double q) const {
  return vcf::Quantile(WindowQuantiles(q), 0.5);
}

double WindowedLatency::WorstWindowQuantile(double q) const {
  const std::vector<double> v = WindowQuantiles(q);
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

bool WindowRates::Add(std::uint64_t now_ns, std::uint64_t ops) {
  const std::uint64_t end = start_ns_ + window_ns_ * ops_.size();
  const std::uint64_t from = std::max(last_ns_, start_ns_);
  if (now_ns > from && ops > 0) {
    const double per_ns = static_cast<double>(ops) / static_cast<double>(now_ns - from);
    for (std::uint64_t t = from; t < now_ns && t < end;) {
      const std::uint64_t w = (t - start_ns_) / window_ns_;
      const std::uint64_t stop = std::min(now_ns, start_ns_ + (w + 1) * window_ns_);
      ops_[w] += per_ns * static_cast<double>(stop - t);
      t = stop;
    }
  }
  last_ns_ = now_ns;
  return now_ns < end;
}

void WindowRates::Merge(const WindowRates& other) {
  for (std::size_t w = 0; w < ops_.size() && w < other.ops_.size(); ++w) {
    ops_[w] += other.ops_[w];
  }
}

double WindowRates::MedianMops() const {
  std::vector<double> rates;
  for (double n : ops_) rates.push_back(n / static_cast<double>(window_ns_) * 1e3);
  return vcf::Quantile(rates, 0.5);
}

std::string WindowRates::Summary() const {
  std::vector<double> rates;
  for (double n : ops_) rates.push_back(n / static_cast<double>(window_ns_) * 1e3);
  std::sort(rates.begin(), rates.end());
  std::ostringstream s;
  s << std::setprecision(4) << rates.front() << " / " << vcf::Quantile(rates, 0.5)
    << " / " << rates.back() << " Mops/s over " << rates.size() << " windows";
  return s.str();
}

// --- Threads ----------------------------------------------------------------

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

void RunThreads(unsigned n, const std::function<void(unsigned)>& fn) {
  if (n == 0) return;
  if (n > Nproc()) {
    throw std::runtime_error("refusing to start " + std::to_string(n) +
                             " threads on " + std::to_string(Nproc()) +
                             " CPUs");
  }
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (unsigned t = 1; t < n; ++t) threads.emplace_back(fn, t);
  fn(0);
  for (auto& th : threads) th.join();
}

void Barrier::Wait() {
  const unsigned gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
    return;
  }
  // Spin briefly (a sleeping vCPU wakes slowly under a hypervisor), then
  // sleep, so a thread parked through a long phase leaves its CPU free.
  for (int spin = 0; spin < 4000; ++spin) {
    if (generation_.load(std::memory_order_acquire) != gen) return;
    __builtin_ia32_pause();
  }
  while (generation_.load(std::memory_order_acquire) == gen) {
    generation_.wait(gen, std::memory_order_acquire);
  }
}

// --- Tracing ----------------------------------------------------------------

Tracer::Tracer(bool enabled)
    : enabled_(enabled), buffers_(enabled ? Nproc() + 1 : 0),
      kept_(enabled ? Nproc() + 1 : 0, std::vector<std::uint32_t>(kMaxNames, 0)),
      dropped_(enabled ? Nproc() + 1 : 0, 0) {}

std::uint32_t Tracer::Name(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (names_.size() == kMaxNames) throw std::runtime_error("too many span names");
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::SpanCount() const {
  std::size_t n = 0;
  for (const auto& buf : buffers_) n += buf.size();
  return n;
}

std::size_t Tracer::Dropped() const {
  return std::accumulate(dropped_.begin(), dropped_.end(), std::size_t{0});
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# name\tthread\tstart_ns\tend_ns\top\n";
  for (const auto& buf : buffers_) {
    for (const Span& s : buf) {
      out << names_[s.name] << '\t' << s.thread << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.op << '\n';
    }
  }
  return static_cast<bool>(out);
}

// --- Report -----------------------------------------------------------------

void Report::E2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, {value, unit}});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Ops(const std::string& op, std::uint64_t attempted,
                 std::uint64_t failed) {
  auto& slot = ops_[op];
  slot.first += attempted;
  slot.second += failed;
}

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "ok    " : "FAILED") + "  " + what);
  if (!ok) violations_.push_back(what);
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.first;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.second;
  return n;
}

namespace {
std::string Num(double v) {
  std::ostringstream s;
  s << std::setprecision(15) << v;
  return s.str();
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics) {
  std::ostringstream s;
  s << '{';
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) s << ", ";
    first = false;
    s << '"' << name << "\": {\"value\": " << Num(vu.first)
      << ", \"unit\": \"" << vu.second << "\"}";
  }
  s << '}';
  return s.str();
}
}  // namespace

void Report::Print(bool trace) const {
  for (const auto& line : notes_) std::cout << "note    " << line << '\n';
  for (const auto& line : checks_) std::cout << "check   " << line << '\n';
  for (const auto& [op, c] : ops_) {
    std::cout << "ops     " << op << ": attempted " << c.first << ", failed "
              << c.second << '\n';
  }
  for (const auto& [name, vu] : e2e_) {
    std::cout << "metric  " << name << " = " << Num(vu.first) << ' '
              << vu.second << '\n';
  }
  for (const auto& [name, vu] : layer_) {
    std::cout << "layer   " << name << " = " << Num(vu.first) << ' '
              << vu.second << '\n';
  }
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted()
            << ", \"failed\": " << failed()
            << ", \"metrics\": " << MetricsJson(trace ? layer_ : e2e_) << "}"
            << std::endl;
}

bool Report::WriteLayerJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"per_layer\": " << MetricsJson(layer_)
      << ",\n \"end_to_end\": " << MetricsJson(e2e_) << ",\n \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    std::string escaped;
    for (char c : notes_[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << (i ? ",\n   " : "\n   ") << '"' << escaped << '"';
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Host -------------------------------------------------------------------

namespace {
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string want = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(want, 0) == 0) {
      std::istringstream s(line.substr(want.size()));
      double kb = 0;
      s >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}
}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

std::string Provenance(const Args& args) {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::string caches;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(dir + "type");
    if (type == "Instruction") continue;
    if (!caches.empty()) caches += ' ';
    caches += 'L';
    caches += level;
    caches += '=';
    caches += ReadFirstLine(dir + "size");
  }
  const vcf::server::Poller poller(vcf::server::Poller::Backend::kAuto);
  std::ostringstream s;
  s << "nproc=" << Nproc() << "; cpu=" << model << "; caches=" << caches
    << "; thp=" << ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled")
    << "; poller=" << vcf::server::Poller::BackendName(poller.backend())
    << "; wide probe arm=" << vcf::ProbeArmName(vcf::ActiveProbeArm())
    << "; build=" << PERFBENCH_BUILD_TYPE << "; commit=" << args.commit
    << "; seed=" << args.seed << "; seconds=" << args.seconds;
  return s.str();
}

// --- Checks -------------------------------------------------------------------

double BalancedR(unsigned width) {
  return 1.0 + std::pow(2.0, -static_cast<double>(width)) -
         std::pow(2.0, 1.0 - static_cast<double>(width) / 2.0);
}

double Eq10Bound(unsigned f, double r, unsigned b, double alpha) {
  return 1.0 - std::pow(1.0 - std::pow(2.0, -static_cast<double>(f)),
                        (2.0 * r + 2.0) * b * alpha);
}

double FprAllowance(double p, std::uint64_t n) {
  const double nn = static_cast<double>(n);
  return 5.0 * std::sqrt(p * (1.0 - p) / nn) + 3.0 / nn;
}

}  // namespace perfbench
