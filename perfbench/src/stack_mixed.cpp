// stack-mixed: four threads on the serving composition
// sharded:4:resilient:elastic:vcf. The stack starts undersized, so the
// concurrent fill crosses two elastic doublings per shard. Each of nine
// rounds fills a fresh stack, then runs a read-only chunk, a 90/10
// lookup/(erase+insert) chunk at steady load and an open-loop chunk of the
// same mix at a fixed rate, and one SaveState -> LoadState cycle of the
// whole stack; ten back-to-back cycles on the last stack follow, as a
// replica bootstrap does. The leaf is the same kind as in leaf-fill, so
// the cost the wrappers add is the difference between them.
//
// Writes are shard-affine, as vcfd's pinned shards route them: thread t
// inserts and erases only keys that route to shard t, so writers never
// queue on each other's shard locks, while every thread's lookups cross
// all shards and race the owners' writes through the seqlocks.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/elastic_filter.hpp"
#include "core/resilient_filter.hpp"
#include "core/sharded_filter.hpp"
#include "core/vcf.hpp"
#include "harness/filter_factory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kShards = 4;
constexpr unsigned kSlotsLog2 = 21;  // starting budget; grows to 2^23
constexpr std::size_t kFillPerThread = 1250000;  // 5M keys in all
constexpr std::size_t kReadKeys = std::size_t{1} << 19;  // per thread
constexpr unsigned kOpenThreads = 2;     // see OpenLoop()
constexpr double kOpenLoopRate = 25000;  // requests/s per open-loop thread
constexpr int kReloads = 10;
constexpr int kRounds = 9;
constexpr std::size_t kFprProbes = std::size_t{1} << 21;
constexpr std::size_t kProbeKeys = 4096;

vcf::FilterSpec StackSpec() {
  vcf::FilterSpec spec;
  vcf::ParseFilterKind("sharded:4:resilient:elastic:vcf", spec);
  spec.params = vcf::CuckooParams::ForSlotsLog2(kSlotsLog2);
  return spec;
}

std::size_t ShardOf(std::uint64_t key) {
  return vcf::ShardedFilter::ShardIndex(key, vcf::ShardedFilter::kDefaultSalt, kShards);
}

vcf::ShardedFilter& Sharded(vcf::Filter& f) {
  return dynamic_cast<vcf::ShardedFilter&>(f);
}
vcf::ResilientFilter& ResilientOf(vcf::ShardedFilter& s, std::size_t i) {
  return dynamic_cast<vcf::ResilientFilter&>(s.shard(i));
}
vcf::ElasticFilter& ElasticOf(vcf::ShardedFilter& s, std::size_t i) {
  return dynamic_cast<vcf::ElasticFilter&>(ResilientOf(s, i).inner());
}

/// The next key of (role, thread)'s stream that routes to shard `thread`.
std::uint64_t NextOwnKey(const KeyStreams& keys, Role role, unsigned t,
                         std::uint64_t& cursor) {
  for (;;) {
    const std::uint64_t k = keys.At(role, cursor++, t);
    if (ShardOf(k) == t) return k;
  }
}

/// One thread's reference set, all in its own shard: fill keys
/// [lo, kFillPerThread) plus churn keys [churn_lo, churn.size()). Updates
/// erase the oldest fill key of the lower half, then the oldest churn key,
/// so the upper half of every thread's fill keys stays live for the whole
/// run and other threads may look it up.
struct LiveSet {
  const std::vector<std::uint64_t>* fill = nullptr;
  std::vector<std::uint64_t> churn;
  std::size_t lo = 0, churn_lo = 0;
  std::uint64_t churn_cursor = 0;
  std::size_t size() const { return fill->size() - lo + churn.size() - churn_lo; }
  std::uint64_t Key(std::size_t idx) const {
    const std::size_t nf = fill->size() - lo;
    return idx < nf ? (*fill)[lo + idx] : churn[churn_lo + idx - nf];
  }
  std::uint64_t TakeOldest() {
    return lo < fill->size() / 2 ? (*fill)[lo++] : churn[churn_lo++];
  }
};

struct StackState {
  std::unique_ptr<vcf::Filter> stack;
  std::vector<std::vector<std::uint64_t>> fill;   // per thread, own shard
  std::vector<std::vector<std::uint64_t>> reads;  // per thread
  std::vector<std::vector<bool>> read_hit;
};

StackState BuildStack(const KeyStreams& keys) {
  StackState s;
  s.stack = vcf::MakeFilter(StackSpec());
  s.fill.resize(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    std::uint64_t cursor = 0;
    s.fill[t].reserve(kFillPerThread);
    while (s.fill[t].size() < kFillPerThread) {
      s.fill[t].push_back(NextOwnKey(keys, Role::kFill, t, cursor));
    }
  }
  s.reads.resize(kThreads);
  s.read_hit.resize(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    Rng rng(keys.At(Role::kChoice, 0, t));
    s.reads[t].resize(kReadKeys);
    s.read_hit[t].resize(kReadKeys);
    for (std::size_t j = 0; j < kReadKeys; ++j) {
      const bool hit = (rng.Next() & 1) != 0;
      s.read_hit[t][j] = hit;
      s.reads[t][j] = hit ? s.fill[rng.Below(kThreads)][rng.Below(kFillPerThread)]
                          : keys.At(Role::kMiss, j, t);
    }
  }
  return s;
}

struct MixTally {
  std::uint64_t lookups = 0, fn = 0;
  std::uint64_t updates = 0, erase_fail = 0, insert_fail = 0;
  void Add(const MixTally& o) {
    lookups += o.lookups; fn += o.fn; updates += o.updates;
    erase_fail += o.erase_fail; insert_fail += o.insert_fail;
  }
};

/// One 90/10 op on thread t: 45% lookups of live keys (the upper, never
/// erased half of any thread's fill keys), 45% misses, 10% updates on the
/// thread's own shard (erase its oldest live key, insert a fresh one).
void MixOp(vcf::Filter& f, const StackState& st, const KeyStreams& keys, unsigned t,
           Rng& rng, LiveSet& live, MixTally& tally, std::uint64_t& miss_serial) {
  const std::uint64_t r = rng.Below(20);
  if (r < 9) {
    const auto& other = st.fill[rng.Below(kThreads)];
    const std::size_t half = other.size() / 2;
    tally.fn += f.Contains(other[half + rng.Below(other.size() - half)]) ? 0 : 1;
    ++tally.lookups;
  } else if (r < 18) {
    Keep(f.Contains(keys.At(Role::kMiss, kReadKeys + miss_serial++, t)));
    ++tally.lookups;
  } else {
    live.churn.push_back(NextOwnKey(keys, Role::kChurn, t, live.churn_cursor));
    if (!f.Erase(live.TakeOldest())) ++tally.erase_fail;
    if (!f.Insert(live.churn.back())) ++tally.insert_fail;
    ++tally.updates;
  }
}

std::vector<bool> ProbeAnswers(const vcf::Filter& f, const KeyStreams& keys,
                               const LiveSet& live) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < kProbeKeys; ++i) {
    out.push_back(f.Contains(live.Key(i * live.size() / kProbeKeys)));
    out.push_back(f.Contains(keys.At(Role::kProbe, i)));
  }
  return out;
}

/// Concurrent shard-affine fill of a fresh stack: thread t inserts its own
/// keys, one timestamp per insert.
void Fill(vcf::Filter& stack, const StackState& st, Tracer& tracer, std::uint32_t span,
          std::vector<vcf::LatencyHistogram>& lat,
          std::vector<std::uint64_t>& refused,
          double* seconds) {
  Barrier go(kThreads);
  std::uint64_t t0 = 0;
  RunThreads(kThreads, [&](unsigned t) {
    go.Wait();
    if (t == 0) t0 = NowNs();
    std::uint64_t prev = NowNs();
    for (std::size_t i = 0; i < kFillPerThread; ++i) {
      if (!stack.Insert(st.fill[t][i])) ++refused[t];
      const std::uint64_t now = NowNs();
      lat[t].Record(now - prev);
      tracer.Record(t, span, prev, now, OpId(1, t, i));
      prev = now;
    }
    go.Wait();
  });
  *seconds = SecondsSince(t0);
}

}  // namespace

void StackMixed(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  StackState st;
  const double setup_s = TimedSetup(
      5, [&] { st = StackState{}; }, [&] { st = BuildStack(keys); });
  report.Note("stack: " + st.stack->Name() + ", " + std::to_string(st.stack->SlotCount()) +
              " slots at start");
  const std::uint32_t sp_insert = tracer.Name("sharded.Insert");
  const std::uint32_t sp_contains = tracer.Name("sharded.Contains");
  const std::uint32_t sp_update = tracer.Name("sharded.MixOp");

  // Rounds. Each fills a fresh stack across the elastic doublings, then runs
  // a read-only chunk, a 90/10 chunk and an open-loop chunk of the same mix
  // on it, and one whole-stack reload cycle. Every figure is the median over
  // rounds, so it samples the host across the whole run instead of one
  // stretch of it.
  const double read_s = Budget(args, 0.2) / kRounds;
  const double mix_s = Budget(args, 0.25) / kRounds;
  const double open_s = Budget(args, 0.2) / kRounds;
  const std::uint64_t open_window_ns = static_cast<std::uint64_t>(open_s / 4 * 1e9);
  std::vector<double> fill_mops, fill_p50, fill_p99, read_mops, mix_mops;
  std::uint64_t refused_total = 0, retries = 0, min_resizes = UINT64_MAX;
  MixTally reads, mix, ol;
  std::vector<WindowedLatency> req_lat(kThreads, WindowedLatency(open_window_ns * 1e-9));
  std::vector<std::uint64_t> late(kThreads, 0), read_cursor(kThreads, 0);
  std::vector<LiveSet> live;
  std::vector<double> reload;
  bool reload_ok = true, probe_ok = true;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      st.stack.reset();  // one stack at a time keeps peak RSS comparable
      st.stack = vcf::MakeFilter(StackSpec());
    }
    vcf::Filter& stack = *st.stack;
    vcf::ShardedFilter& sharded = Sharded(stack);
    std::vector<vcf::LatencyHistogram> lat(kThreads);
    std::vector<std::uint64_t> refused(kThreads, 0);
    double seconds = 0.0;
    Fill(stack, st, tracer, sp_insert, lat, refused, &seconds);
    fill_mops.push_back(Mops(kFillPerThread * kThreads, seconds));
    for (unsigned t = 1; t < kThreads; ++t) lat[0].Merge(lat[t]);
    fill_p50.push_back(lat[0].ValueAtQuantile(0.50) * 1e-3);
    fill_p99.push_back(lat[0].ValueAtQuantile(0.99) * 1e-3);
    std::uint64_t r = 0;
    for (auto x : refused) r += x;
    refused_total += r;
    report.Ops("insert", kFillPerThread * kThreads, r);
    std::uint64_t resizes = 0;
    for (std::size_t i = 0; i < kShards; ++i) resizes += ElasticOf(sharded, i).Resizes();
    min_resizes = std::min(min_resizes, resizes);

    live.assign(kThreads, LiveSet{});
    for (unsigned t = 0; t < kThreads; ++t) live[t].fill = &st.fill[t];
    std::vector<MixTally> rt(kThreads), mt(kThreads), ot(kThreads);
    std::vector<std::uint64_t> miss_serial(kThreads, 0);
    const std::uint64_t retries0 = sharded.seqlock_retries();
    Barrier b(kThreads);
    std::uint64_t t0 = 0;
    RunThreads(kThreads, [&](unsigned t) {
      Rng rng(keys.At(Role::kChoice, 100 + static_cast<std::uint64_t>(round), t));
      // Read-only chunk: half hits over every thread's fill keys, half misses.
      b.Wait();
      if (t == 0) t0 = NowNs();
      b.Wait();
      const auto& rk = st.reads[t];
      const auto& rh = st.read_hit[t];
      std::size_t& j = read_cursor[t];
      for (const std::uint64_t end = t0 + static_cast<std::uint64_t>(read_s * 1e9);
           NowNs() < end;) {
        for (int k = 0; k < 512; ++k, j = (j + 1) % kReadKeys) {
          const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
          const bool yes = stack.Contains(rk[j]);
          tracer.Record(t, sp_contains, s, NowNs(), OpId(2, t, reads.lookups + rt[t].lookups));
          if (rh[j]) rt[t].fn += yes ? 0 : 1;
          ++rt[t].lookups;
        }
      }
      b.Wait();
      if (t == 0) {
        std::uint64_t n = 0;
        for (const auto& x : rt) n += x.lookups;
        read_mops.push_back(Mops(n, SecondsSince(t0)));
        t0 = NowNs();
      }
      // 90/10 chunk; an update is two filter calls (erase + insert).
      b.Wait();
      for (const std::uint64_t end = t0 + static_cast<std::uint64_t>(mix_s * 1e9);
           NowNs() < end;) {
        for (int k = 0; k < 256; ++k) {
          const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
          MixOp(stack, st, keys, t, rng, live[t], mt[t], miss_serial[t]);
          tracer.Record(t, sp_update, s, NowNs(),
                        OpId(3, t, mix.lookups + mix.updates + mt[t].lookups + mt[t].updates));
        }
      }
      b.Wait();
      if (t == 0) {
        std::uint64_t n = 0;
        for (const auto& x : mt) n += x.lookups + 2 * x.updates;
        mix_mops.push_back(Mops(n, SecondsSince(t0)));
      }
      // Open-loop chunk of the same mix; each round's chunk lands in its own
      // four latency windows.
      if (t >= kOpenThreads) return;
      req_lat[t].SetBase(static_cast<std::uint64_t>(round) * 5 * open_window_ns);
      OpenLoop(kOpenLoopRate, open_s, UINT64_MAX, req_lat[t], &late[t],
               [&](std::uint64_t i) {
                 const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
                 MixOp(stack, st, keys, t, rng, live[t], ot[t], miss_serial[t]);
                 tracer.Record(t, sp_update, s, NowNs(), OpId(4, t, ol.lookups + ol.updates + i));
               });
    });
    retries += sharded.seqlock_retries() - retries0;
    for (unsigned t = 0; t < kThreads; ++t) {
      reads.Add(rt[t]);
      mix.Add(mt[t]);
      ol.Add(ot[t]);
    }
    // One whole-stack SaveState -> LoadState cycle.
    const std::vector<bool> before = ProbeAnswers(stack, keys, live[0]);
    const std::uint64_t c0 = NowNs();
    std::stringstream blob;
    reload_ok = reload_ok && stack.SaveState(blob) && stack.LoadState(blob);
    reload.push_back(SecondsSince(c0));
    probe_ok = probe_ok && ProbeAnswers(stack, keys, live[0]) == before;
  }
  vcf::Filter& stack = *st.stack;
  vcf::ShardedFilter& sharded = Sharded(stack);
  report.Check(min_resizes >= 2 * kShards,
               "every round's fill crossed at least two doublings per shard (at least " +
                   std::to_string(min_resizes) + " resizes over " +
                   std::to_string(kShards) + " shards)");
  for (unsigned t = 1; t < kThreads; ++t) req_lat[0].Merge(req_lat[t]);
  report.Ops("lookup", reads.lookups, reads.fn);
  for (const MixTally* x : {&mix, &ol}) {
    report.Ops("lookup", x->lookups, x->fn);
    report.Ops("update", x->updates, x->erase_fail + x->insert_fail);
  }
  {
    unsigned levels = 0, migrating = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      levels += ElasticOf(sharded, i).Level();
      migrating += ElasticOf(sharded, i).Migrating() ? 1 : 0;
    }
    std::ostringstream s;
    s << kRounds << " rounds; last stack: mean level " << static_cast<double>(levels) / kShards
      << ", " << migrating << " shards still migrating after the rounds; seqlock retries in "
      << "read and mix chunks: " << retries << "; open loop " << kOpenLoopRate
      << "/s on each of " << kOpenThreads << " threads, generator at most "
      << *std::max_element(late.begin(), late.end()) * 1e-3 << " us late";
    report.Note(s.str());
  }

  // Replica bootstrap: whole-stack SaveState -> LoadState cycles back to
  // back on the last stack, the RSS read after each (the timed cycles are
  // the rounds' own, spread across the run).
  const std::vector<bool> before = ProbeAnswers(stack, keys, live[0]);
  std::vector<double> boot, rss;
  std::size_t blob_bytes = 0;
  for (int c = 0; c < kReloads; ++c) {
    const std::uint64_t t0 = NowNs();
    std::stringstream blob;
    reload_ok = reload_ok && stack.SaveState(blob);
    blob_bytes = blob.str().size();
    reload_ok = reload_ok && stack.LoadState(blob);
    boot.push_back(SecondsSince(t0));
    rss.push_back(CurrentRssMb());
  }
  report.Check(reload_ok, "stack SaveState/LoadState succeed");
  report.Check(probe_ok && ProbeAnswers(stack, keys, live[0]) == before,
               "stack answers a fixed probe set identically after every save/load");
  {
    std::ostringstream s;
    s << "reload: " << blob_bytes << "-byte checkpoint; RSS after each of "
      << kReloads << " back-to-back cycles:";
    for (double r : rss) s << ' ' << r;
    s << " MiB; their times:";
    for (double r : boot) s << ' ' << r * 1e3;
    s << " ms";
    report.Note(s.str());
  }

  // Output checks: every live key of every thread answers true; ItemCount
  // equals the reference count.
  std::uint64_t live_total = 0, final_fn = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::size_t n = live[t].size();
    live_total += n;
    for (std::size_t i = 0; i < n; ++i) final_fn += stack.Contains(live[t].Key(i)) ? 0 : 1;
  }
  report.Check(final_fn == 0 && reads.fn == 0 && mix.fn == 0 && ol.fn == 0,
               "no false negatives among live keys (" + std::to_string(live_total) +
                   " checked at the end)");
  report.Check(stack.ItemCount() == live_total,
               "ItemCount() == reference live count " + std::to_string(live_total));
  report.Check(refused_total == 0 && mix.erase_fail + ol.erase_fail == 0 &&
                   mix.insert_fail + ol.insert_fail == 0,
               "no insert refused and no erase missed");
  // An elastic filter routes level-0 entities, so each doubling doubles its
  // FPR at equal load (see README "Known faults"). The gate is Eq. 10 times
  // 2^level, the size of that fault: any further rise fails the run.
  const vcf::CuckooParams p = StackSpec().params;
  const double r = BalancedR(p.fingerprint_bits);
  const double alpha = stack.LoadFactor();
  const double eq10 = Eq10Bound(p.fingerprint_bits, r, p.slots_per_bucket, alpha);
  unsigned max_level = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    max_level = std::max(max_level, ElasticOf(sharded, i).Level());
  }
  const double fpr = MissFpr(stack, keys, kFprProbes);
  std::ostringstream what;
  what << "2^" << max_level << " x Eq. 10 bound (alpha=" << alpha << ", r=" << r
       << "; known elastic fault; FPR is " << fpr / eq10 << "x plain Eq. 10)";
  CheckFpr(report, fpr, kFprProbes, std::ldexp(eq10, static_cast<int>(max_level)),
           what.str());

  report.E2e("setup_s", setup_s, "s");
  report.E2e("insert_mops", vcf::Quantile(fill_mops, 0.5), "Mops/s");
  report.E2e("insert_p50_us", vcf::Quantile(fill_p50, 0.5), "us");
  report.E2e("insert_p99_us", vcf::Quantile(fill_p99, 0.5), "us");
  const double read_med = vcf::Quantile(read_mops, 0.5);
  const double mix_med = vcf::Quantile(mix_mops, 0.5);
  report.E2e("lookup_mops", read_med, "Mops/s");
  report.E2e("mixed_mops", mix_med, "Mops/s");
  report.E2e("bits_per_key",
             static_cast<double>(stack.MemoryBytes()) * 8.0 / static_cast<double>(live_total),
             "bits");
  report.E2e("reload_s", vcf::Quantile(reload, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  report.E2e("serve_mops",
             CombinedMops(reads.lookups, read_med, mix.lookups + 2 * mix.updates, mix_med),
             "Mops/s");
  ReportLatency(report, "request", req_lat[0], false);
}

void LedgerStack(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  StackState st = BuildStack(keys);
  vcf::Filter& stack = *st.stack;
  vcf::ShardedFilter& sharded = Sharded(stack);

  // Single-thread fill, a span per insert, split by whether the key's shard
  // was migrating when the insert started.
  const std::uint32_t sp_mig = tracer.Name("ledger.sharded.Insert.migrating");
  const std::uint32_t sp_quiet = tracer.Name("ledger.sharded.Insert.quiescent");
  vcf::LatencyHistogram mig_lat, quiet_lat;
  std::uint64_t op = 0;
  for (std::size_t i = 0; i < kFillPerThread; ++i) {
    for (unsigned t = 0; t < kThreads; ++t, ++op) {
      const std::uint64_t key = st.fill[t][i];
      const bool mig = ElasticOf(sharded, t).Migrating();
      const std::uint64_t s = NowNs();
      stack.Insert(key);
      const std::uint64_t e = NowNs();
      (mig ? mig_lat : quiet_lat).Record(e - s);
      tracer.Record(0, mig ? sp_mig : sp_quiet, s, e, OpId(20, 0, op));
    }
  }
  std::uint64_t resizes = 0, dual0 = 0;
  unsigned level = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    resizes += ElasticOf(sharded, i).Resizes();
    dual0 += ElasticOf(sharded, i).DualReads();
    level = std::max(level, ElasticOf(sharded, i).Level());
  }

  // The same lookup keys at every layer, outermost first.
  const std::size_t m = kReadKeys / 2;
  const std::vector<std::uint64_t>& k = st.reads[0];
  std::vector<vcf::Filter*> res(m), ela(m);
  for (std::size_t i = 0; i < m; ++i) {
    res[i] = &ResilientOf(sharded, ShardOf(k[i]));
    ela[i] = &ElasticOf(sharded, ShardOf(k[i]));
  }
  BulkNs(m, [&](std::size_t i) { return stack.Contains(k[i]); }, 1);
  std::uint64_t dual1 = 0;
  for (std::size_t i = 0; i < kShards; ++i) dual1 += ElasticOf(sharded, i).DualReads();

  // Equal-capacity static leaves: one VCF per shard with the elastic
  // shard's current total capacity, holding the same keys.
  vcf::FilterSpec leaf_spec = StackSpec();
  std::vector<std::unique_ptr<vcf::VerticalCuckooFilter>> statics;
  for (std::size_t i = 0; i < kShards; ++i) {
    vcf::CuckooParams p = leaf_spec.params;
    p.bucket_count = (leaf_spec.params.bucket_count / kShards) << level;
    statics.push_back(std::make_unique<vcf::VerticalCuckooFilter>(p));
    for (std::uint64_t key : st.fill[i]) statics[i]->Insert(key);
  }
  std::vector<vcf::Filter*> stat(m);
  for (std::size_t i = 0; i < m; ++i) stat[i] = statics[ShardOf(k[i])].get();
  const std::vector<double> ns = InterleavedNs(
      m, {[&](std::size_t i) { return stack.Contains(k[i]); },
          [&](std::size_t i) { return res[i]->Contains(k[i]); },
          [&](std::size_t i) { return ela[i]->Contains(k[i]); },
          [&](std::size_t i) { return stat[i]->Contains(k[i]); }});
  const double sharded_ns = ns[0], res_ns = ns[1], ela_ns = ns[2], static_ns = ns[3];

  TracedPass(tracer, "ledger.sharded.Contains", 21, m,
             [&](std::size_t i) { return stack.Contains(k[i]); });
  TracedPass(tracer, "ledger.resilient.Contains", 22, m,
             [&](std::size_t i) { return res[i]->Contains(k[i]); });
  TracedPass(tracer, "ledger.elastic.Contains", 23, m,
             [&](std::size_t i) { return ela[i]->Contains(k[i]); });
  TracedPass(tracer, "ledger.static_leaf.Contains", 24, m,
             [&](std::size_t i) { return stat[i]->Contains(k[i]); });

  // Four threads: lookups alone, then the 90/10 mix for seqlock contention.
  const double ns4 = ParallelNs(kThreads, m, [&](unsigned t, std::size_t i) {
    return static_cast<std::uint64_t>(stack.Contains(st.reads[t][i]));
  });
  const std::uint64_t r0 = sharded.seqlock_retries(), f0 = sharded.seqlock_fallbacks();
  std::vector<LiveSet> live(kThreads);
  std::vector<MixTally> tally(kThreads);
  std::vector<std::uint64_t> serial(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) live[t].fill = &st.fill[t];
  RunThreads(kThreads, [&](unsigned t) {
    Rng rng(keys.At(Role::kChoice, 7, t));
    for (std::size_t i = 0; i < m; ++i) {
      MixOp(stack, st, keys, t, rng, live[t], tally[t], serial[t]);
    }
  });
  std::uint64_t mix_lookups = 0;
  for (const auto& x : tally) mix_lookups += x.lookups;
  const double per_m = 1e6 / static_cast<double>(mix_lookups);

  // Checkpoint cost per byte and RSS growth per reload.
  std::vector<double> save_ns, load_ns, rss;
  std::size_t bytes = 0;
  for (int c = 0; c < kReloads; ++c) {
    std::stringstream blob;
    std::uint64_t t0 = NowNs();
    stack.SaveState(blob);
    save_ns.push_back(static_cast<double>(NowNs() - t0));
    bytes = blob.str().size();
    t0 = NowNs();
    stack.LoadState(blob);
    load_ns.push_back(static_cast<double>(NowNs() - t0));
    rss.push_back(CurrentRssMb());
  }

  // Miss FPR of the grown stack against Eq. 10 at its load factor.
  const vcf::CuckooParams p = StackSpec().params;
  const double fpr_ratio =
      MissFpr(stack, keys, kFprProbes) /
      Eq10Bound(p.fingerprint_bits, BalancedR(p.fingerprint_bits), p.slots_per_bucket,
                stack.LoadFactor());

  report.Layer("core.resilient.lookup_ns_added", res_ns - ela_ns, "ns");
  report.Layer("core.resilient.stash_hits",
               static_cast<double>(stack.counters().stash_hits.Value()), "count");
  report.Layer("core.sharded.lookup_ns_1t", sharded_ns, "ns");
  report.Layer("core.sharded.lookup_ns_4t", ns4, "ns");
  report.Layer("core.sharded.seqlock_retries_per_mlookup",
               static_cast<double>(sharded.seqlock_retries() - r0) * per_m, "count");
  report.Layer("core.sharded.seqlock_fallbacks_per_mlookup",
               static_cast<double>(sharded.seqlock_fallbacks() - f0) * per_m, "count");
  report.Layer("core.elastic.lookup_ns_added", ela_ns - static_ns, "ns");
  report.Layer("core.elastic.dual_reads_per_lookup",
               static_cast<double>(dual1 - dual0) / static_cast<double>(m), "count");
  report.Layer("core.elastic.resizes", static_cast<double>(resizes), "count");
  report.Layer("core.elastic.migrating_insert_ns", mig_lat.MeanNanos(), "ns");
  report.Layer("core.elastic.quiescent_insert_ns", quiet_lat.MeanNanos(), "ns");
  report.Layer("core.elastic.fpr_over_eq10", fpr_ratio, "x");
  report.Layer("core.state_io.save_ns_per_byte",
               vcf::Quantile(save_ns, 0.5) / static_cast<double>(bytes), "ns/B");
  report.Layer("core.state_io.load_ns_per_byte",
               vcf::Quantile(load_ns, 0.5) / static_cast<double>(bytes), "ns/B");
  report.Layer("core.elastic.rss_growth_per_reload_mb",
               (rss.back() - rss.front()) / static_cast<double>(kReloads - 1), "MiB");
  std::ostringstream s;
  s << "ledger stack (1 thread, same keys): sharded " << sharded_ns
    << " ns > resilient " << res_ns << " ns > elastic " << ela_ns
    << " ns vs equal-capacity static leaf " << static_ns << " ns (elastic/static = "
    << ela_ns / static_ns << "x); 4-thread sharded lookup " << ns4 << " ns ("
    << sharded_ns / ns4 * kThreads << "x aggregate scaling on 4 threads); "
    << mig_lat.Count() << " inserts while migrating, " << quiet_lat.Count()
    << " quiescent; FPR " << fpr_ratio << "x Eq. 10";
  report.Note(s.str());
}

}  // namespace perfbench
