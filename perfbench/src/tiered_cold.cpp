// tiered-cold: four threads on sharded:4:tiered:vcf, the only workload that
// reaches src/tiered and src/segment (elastic: and tiered: do not compose).
// Set-up freezes a cold set into one binary-fuse segment per shard and
// re-inserts a hot subset into the mutable fronts.
//
// The run is a sequence of identical rounds, each: a read-only chunk
// (Zipf-skewed over the cold set, plus hot keys and misses), an open-loop
// chunk of the same reads at a fixed rate, and a write round that erases the
// hot keys (frozen, so each erase writes a tombstone), verifies a fixed
// set of live keys, and re-inserts the hot keys into the fronts. Every
// eighth round ends with a whole-tier SaveState -> LoadState cycle.
//
// TieredFilter::Erase tombstones a whole canonical-entity class, so a live
// frozen key that shares its entity with an erased hot key reads false
// while the tombstone stands. The benchmark predicts that set from the
// outside (front().KeyEntity per shard) and counts each such lookup as a
// failed lookup. Cold and hot sets are fixed, seed-independent streams and
// each write round is run by the thread that owns its shard, so every
// round attempts exactly the same failing lookups on every seed; the seed
// drives the read choices and misses.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "core/sharded_filter.hpp"
#include "harness/filter_factory.hpp"
#include "segment/segment.hpp"
#include "tiered/tiered_filter.hpp"
#include "workload/key_streams.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kShards = 4;
constexpr unsigned kSlotsLog2 = 22;     // front: 2^17 slots per shard
constexpr std::uint64_t kCold = 400000;  // frozen keys
constexpr std::uint64_t kHot = 4096;     // frozen keys also in the fronts
constexpr std::size_t kVerifyPerShard = 2048;
constexpr std::size_t kReadKeys = std::size_t{1} << 18;  // per thread
constexpr std::size_t kReadChunk = 16384;    // per thread per round
constexpr unsigned kOpenThreads = 2;         // see OpenLoop()
constexpr std::size_t kOpenChunk = 1024;     // per open-loop thread per round
constexpr double kOpenLoopRate = 25000;      // requests/s per open-loop thread
constexpr std::uint64_t kWindowNs = 50000000;  // 50 ms, one chunk each
constexpr int kReloadEvery = 8;  // rounds
constexpr std::size_t kFprProbes = std::size_t{1} << 21;
constexpr std::size_t kProbeKeys = 4096;

std::uint64_t ColdKey(std::uint64_t i) { return KeyStreams::Fixed(Role::kFill, i); }

vcf::TieredFilter& TierOf(vcf::ShardedFilter& s, std::size_t i) {
  return dynamic_cast<vcf::TieredFilter&>(s.shard(i));
}

struct TierState {
  std::unique_ptr<vcf::Filter> filter;
  vcf::ShardedFilter* sharded = nullptr;
  std::vector<std::vector<std::uint64_t>> hot;     // per shard
  std::vector<std::vector<std::uint64_t>> verify;  // per shard
  std::vector<std::vector<bool>> verify_fn;        // predicted false negatives
  std::uint64_t predicted_fn = 0;
  std::vector<std::vector<std::uint64_t>> reads;   // per thread
  std::vector<std::vector<std::uint8_t>> read_kind;  // 0 cold, 1 hot, 2 miss
};

TierState BuildTier(const KeyStreams& keys) {
  TierState s;
  vcf::FilterSpec spec;
  vcf::ParseFilterKind("sharded:4:tiered:vcf", spec);
  spec.params = vcf::CuckooParams::ForSlotsLog2(kSlotsLog2);
  s.filter = vcf::MakeFilter(spec);
  s.sharded = &dynamic_cast<vcf::ShardedFilter&>(*s.filter);
  vcf::ShardedFilter& sh = *s.sharded;
  for (std::uint64_t i = 0; i < kCold; ++i) s.filter->Insert(ColdKey(i));
  for (std::size_t i = 0; i < kShards; ++i) TierOf(sh, i).Freeze();
  s.hot.resize(kShards);
  for (std::uint64_t i = 0; i < kHot; ++i) {
    const std::uint64_t k = ColdKey(i);
    s.filter->Insert(k);
    s.hot[sh.ShardFor(k)].push_back(k);
  }
  // Reference model of the entity-class tombstones: a live key reads false
  // while the hot keys are erased iff its entity equals a hot key's entity
  // in the same shard.
  std::vector<std::unordered_set<std::uint64_t>> hot_entities(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    for (std::uint64_t k : s.hot[i]) {
      std::uint64_t e = 0;
      TierOf(sh, i).front().KeyEntity(k, &e);
      hot_entities[i].insert(e);
    }
  }
  s.verify.resize(kShards);
  s.verify_fn.resize(kShards);
  for (std::uint64_t i = kHot; i < kCold; ++i) {
    const std::uint64_t k = ColdKey(i);
    const std::size_t sid = sh.ShardFor(k);
    std::uint64_t e = 0;
    TierOf(sh, sid).front().KeyEntity(k, &e);
    const bool fn = hot_entities[sid].count(e) != 0;
    if (fn || s.verify[sid].size() < kVerifyPerShard) {
      s.verify[sid].push_back(k);
      s.verify_fn[sid].push_back(fn);
      s.predicted_fn += fn ? 1 : 0;
    }
  }
  // Seeded read mix: 70% cold (Zipf 0.99 over the cold set), 10% hot, 20%
  // never-inserted keys.
  s.reads.resize(kThreads);
  s.read_kind.resize(kThreads);
  // Popularity ranks map through a seeded permutation of the cold set
  // (multiplication by an odd constant prime to 5 is a bijection mod kCold).
  const std::uint64_t shift = keys.At(Role::kChoice, 9) % kCold;
  for (unsigned t = 0; t < kThreads; ++t) {
    Rng rng(keys.At(Role::kChoice, 0, t));
    vcf::ZipfGenerator zipf(kCold, 0.99, keys.At(Role::kChoice, 10, t));
    s.reads[t].resize(kReadKeys);
    s.read_kind[t].resize(kReadKeys);
    for (std::size_t j = 0; j < kReadKeys; ++j) {
      const std::uint64_t r = rng.Below(10);
      if (r < 7) {
        const std::uint64_t rank = zipf.NextRank();
        s.reads[t][j] = ColdKey((rank * 2654435761u + shift) % kCold);
        s.read_kind[t][j] = 0;
      } else if (r < 8) {
        s.reads[t][j] = ColdKey(rng.Below(kHot));
        s.read_kind[t][j] = 1;
      } else {
        s.reads[t][j] = keys.At(Role::kMiss, j, t);
        s.read_kind[t][j] = 2;
      }
    }
  }
  return s;
}

/// Per-shard Eq. 10 bound for a miss: the live front at its load, the
/// frozen tier (the front table as it stood at freeze time, so at the
/// frozen entity count's load), and the segment's own 2^-g.
double TierBound(vcf::ShardedFilter& sh) {
  double sum = 0.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    vcf::TieredFilter& t = TierOf(sh, i);
    const double slots = static_cast<double>(t.front().SlotCount());
    const double r = BalancedR(14);
    double frozen = 0.0, seg = 0.0;
    for (std::size_t s = 0; s < t.SegmentCount(); ++s) {
      frozen += static_cast<double>(t.Segment(s).EntityCount());
      seg += std::ldexp(1.0, -static_cast<int>(t.Segment(s).fingerprint_bits()));
    }
    sum += Eq10Bound(14, r, 4, t.front().LoadFactor()) +
           Eq10Bound(14, r, 4, frozen / slots) + seg;
  }
  return sum / kShards;
}

std::vector<bool> ProbeAnswers(const vcf::Filter& f) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < kProbeKeys; ++i) {
    out.push_back(f.Contains(ColdKey(i * (kCold / kProbeKeys))));
    out.push_back(f.Contains(KeyStreams::Fixed(Role::kProbe, i)));
  }
  return out;
}

}  // namespace

void TieredCold(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  TierState st;
  const double setup_s = TimedSetup(
      5, [&] { st = TierState{}; }, [&] { st = BuildTier(keys); });
  vcf::Filter& tier = *st.filter;
  vcf::ShardedFilter& sh = *st.sharded;
  report.Note("tier: " + tier.Name() + "; " + std::to_string(kCold) +
              " frozen keys, " + std::to_string(kHot) + " hot; " +
              std::to_string(st.predicted_fn) +
              " live keys share an entity with a hot key (predicted false "
              "negatives per write round)");
  const std::uint32_t sp_contains = tracer.Name("sharded.Contains");
  const std::uint32_t sp_erase = tracer.Name("sharded.Erase");
  const std::uint32_t sp_insert = tracer.Name("sharded.Insert");

  struct ThreadTally {
    std::uint64_t reads = 0, read_fn = 0;
    std::uint64_t open = 0, open_fn = 0;
    std::uint64_t erases = 0, erase_fail = 0, inserts = 0, insert_fail = 0;
    std::uint64_t verifies = 0, verify_fn = 0, unpredicted = 0;
    std::size_t cursor = 0;
  };
  std::vector<ThreadTally> tally(kThreads);
  // Every rate is the median over rounds; insert latencies are grouped
  // one window per round.
  std::vector<WindowedLatency> ins_lat(kThreads, WindowedLatency(1.0));
  std::vector<WindowedLatency> req_lat(kThreads, WindowedLatency(kWindowNs * 1e-9));
  std::vector<std::uint64_t> late(kThreads, 0);
  std::vector<double> read_mops, write_mops, insert_mops;
  std::uint64_t write_ops_per_round = 2 * kHot;
  for (const auto& v : st.verify) write_ops_per_round += v.size();
  std::uint64_t rounds = 0, tombstones = 0;
  std::atomic<bool> stop{false};
  Barrier b(kThreads);
  const double budget = Budget(args, 0.8);
  const std::uint64_t run_t0 = NowNs();

  // Whole-tier SaveState -> LoadState cycle, checked on a fixed probe set.
  std::vector<double> reload;
  bool reload_ok = true, probe_ok = true;
  auto reload_cycle = [&] {
    const std::vector<bool> before = ProbeAnswers(tier);
    const std::uint64_t c0 = NowNs();
    std::stringstream blob;
    reload_ok = reload_ok && tier.SaveState(blob) && tier.LoadState(blob);
    reload.push_back(SecondsSince(c0));
    probe_ok = probe_ok && ProbeAnswers(tier) == before;
  };

  // One read; false only for a live key that answered false.
  auto read_one = [&](unsigned t, ThreadTally& x) {
    const std::size_t j = x.cursor;
    x.cursor = (x.cursor + 1) % kReadKeys;
    return tier.Contains(st.reads[t][j]) || st.read_kind[t][j] == 2;
  };

  RunThreads(kThreads, [&](unsigned t) {
    ThreadTally& x = tally[t];
    for (std::uint64_t round = 0;; ++round) {
      if (t == 0) stop.store(SecondsSince(run_t0) >= budget && round > 0);
      b.Wait();
      if (stop.load()) break;
      // Read-only chunk.
      std::uint64_t t0 = NowNs();
      for (std::size_t i = 0; i < kReadChunk; ++i) {
        const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
        x.read_fn += read_one(t, x) ? 0 : 1;
        tracer.Record(t, sp_contains, s, NowNs(), OpId(1, t, x.reads));
        ++x.reads;
      }
      b.Wait();
      if (t == 0) read_mops.push_back(Mops(kReadChunk * kThreads, SecondsSince(t0)));
      // Open-loop chunk of the same reads; each round's chunk lands in its
      // own latency window.
      if (t < kOpenThreads) {
        req_lat[t].SetBase(round * 2 * kWindowNs);
        OpenLoop(kOpenLoopRate, static_cast<double>(kOpenChunk) / kOpenLoopRate,
                 kOpenChunk, req_lat[t], &late[t], [&](std::uint64_t i) {
                   const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
                   x.open_fn += read_one(t, x) ? 0 : 1;
                   tracer.Record(t, sp_contains, s, NowNs(), OpId(2, t, x.open + i));
                 });
        x.open += kOpenChunk;
      }
      b.Wait();
      // Write round on the thread's own shard: erase the hot keys, verify,
      // re-insert.
      t0 = NowNs();
      std::uint64_t prev = t0;
      for (std::uint64_t k : st.hot[t]) {
        x.erase_fail += tier.Erase(k) ? 0 : 1;
        const std::uint64_t now = NowNs();
        tracer.Record(t, sp_erase, prev, now, OpId(3, t, x.erases));
        prev = now;
        ++x.erases;
      }
      b.Wait();
      if (t == 0) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < kShards; ++i) n += TierOf(sh, i).TombstoneCount();
        tombstones = n;
      }
      const auto& vk = st.verify[t];
      for (std::size_t i = 0; i < vk.size(); ++i) {
        const std::uint64_t s = tracer.enabled() ? NowNs() : 0;
        const bool yes = tier.Contains(vk[i]);
        tracer.Record(t, sp_contains, s, NowNs(), OpId(4, t, x.verifies));
        ++x.verifies;
        if (!yes) ++x.verify_fn;
        if (yes == st.verify_fn[t][i]) ++x.unpredicted;
      }
      b.Wait();
      const std::uint64_t ins_t0 = NowNs();
      prev = ins_t0;
      for (std::uint64_t k : st.hot[t]) {
        x.insert_fail += tier.Insert(k) ? 0 : 1;
        const std::uint64_t now = NowNs();
        ins_lat[t].Add(round * 1000000000ull, now - prev);
        tracer.Record(t, sp_insert, prev, now, OpId(5, t, x.inserts));
        prev = now;
        ++x.inserts;
      }
      b.Wait();
      if (t == 0) {
        write_mops.push_back(Mops(write_ops_per_round, SecondsSince(t0)));
        insert_mops.push_back(Mops(kHot, SecondsSince(ins_t0)));
        rounds = round + 1;
        // Every kReloadEvery-th round ends with a whole-tier SaveState ->
        // LoadState cycle while the other threads wait for the next round.
        if (round % kReloadEvery == kReloadEvery - 1) reload_cycle();
      }
    }
  });

  ThreadTally all;
  for (unsigned t = 0; t < kThreads; ++t) {
    const ThreadTally& x = tally[t];
    all.reads += x.reads; all.read_fn += x.read_fn;
    all.open += x.open; all.open_fn += x.open_fn;
    all.erases += x.erases; all.erase_fail += x.erase_fail;
    all.inserts += x.inserts; all.insert_fail += x.insert_fail;
    all.verifies += x.verifies; all.verify_fn += x.verify_fn;
    all.unpredicted += x.unpredicted;
    if (t > 0) {
      ins_lat[0].Merge(ins_lat[t]);
      req_lat[0].Merge(req_lat[t]);
    }
  }
  report.Ops("lookup", all.reads + all.open, all.read_fn + all.open_fn);
  report.Ops("erase", all.erases, all.erase_fail);
  report.Ops("insert", all.inserts, all.insert_fail);
  report.Ops("lookup_after_erase", all.verifies, all.verify_fn);
  {
    std::ostringstream s;
    s << rounds << " rounds; " << tombstones << " tombstones after each erase pass; "
      << all.verify_fn / std::max<std::uint64_t>(rounds, 1)
      << " live keys read false per round (predicted " << st.predicted_fn
      << "); open loop " << kOpenLoopRate << "/s on each of " << kOpenThreads
      << " threads, generator at most "
      << *std::max_element(late.begin(), late.end()) * 1e-3 << " us late";
    report.Note(s.str());
  }

  if (reload.empty()) reload_cycle();  // runs too short for a round's cycle
  report.Check(reload_ok, "tier SaveState/LoadState succeed");
  report.Check(probe_ok, "tier answers a fixed probe set identically after every save/load (" +
                             std::to_string(reload.size()) + " cycles)");

  // Output checks.
  std::uint64_t final_fn = 0;
  for (std::uint64_t i = 0; i < kCold; ++i) final_fn += tier.Contains(ColdKey(i)) ? 0 : 1;
  report.Check(final_fn == 0 && all.read_fn == 0 && all.open_fn == 0,
               "no false negatives among the " + std::to_string(kCold) +
                   " live keys outside the erase window");
  report.Check(all.unpredicted == 0,
               "after each erase pass, exactly the predicted entity-class "
               "aliases read false (" + std::to_string(st.predicted_fn) + " per round)");
  report.Check(all.erase_fail == 0 && all.insert_fail == 0,
               "every hot erase and re-insert succeeded");
  CheckFpr(report, MissFpr(tier, keys, kFprProbes), kFprProbes, TierBound(sh),
           "front + frozen-front Eq. 10 + segment 2^-g bound");

  const std::uint64_t write_ops = all.erases + all.verifies + all.inserts;
  report.E2e("setup_s", setup_s, "s");
  const double read_med = vcf::Quantile(read_mops, 0.5);
  const double write_med = vcf::Quantile(write_mops, 0.5);
  report.E2e("insert_mops", vcf::Quantile(insert_mops, 0.5), "Mops/s");
  ReportLatency(report, "insert", ins_lat[0], true);
  report.E2e("lookup_mops", read_med, "Mops/s");
  report.E2e("mixed_mops", write_med, "Mops/s");
  report.E2e("bits_per_key",
             static_cast<double>(tier.MemoryBytes()) * 8.0 / static_cast<double>(kCold),
             "bits");
  report.E2e("reload_s", vcf::Quantile(reload, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  report.E2e("serve_mops",
             CombinedMops(all.reads, read_med, write_ops, write_med),
             "Mops/s");
  ReportLatency(report, "request", req_lat[0], false);
}

void LedgerTiered(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  TierState st = BuildTier(keys);
  vcf::Filter& tier = *st.filter;
  vcf::ShardedFilter& sh = *st.sharded;
  const std::size_t m = kReadKeys / 2;
  const std::vector<std::uint64_t>& k = st.reads[0];
  std::vector<vcf::TieredFilter*> tiers(m);
  std::vector<std::uint64_t> entity(m);
  for (std::size_t i = 0; i < m; ++i) {
    tiers[i] = &TierOf(sh, sh.ShardFor(k[i]));
    tiers[i]->front().KeyEntity(k[i], &entity[i]);
  }
  const std::vector<double> ns = InterleavedNs(
      m, {[&](std::size_t i) { return tiers[i]->Contains(k[i]); },
          [&](std::size_t i) { return tiers[i]->front().Contains(k[i]); },
          [&](std::size_t i) { return tiers[i]->Segment(0).Contains(entity[i]); }});
  const double tier_ns = ns[0], front_ns = ns[1], seg_ns = ns[2];
  const double tier4_ns = ParallelNs(kThreads, m, [&](unsigned t, std::size_t i) {
    const std::uint64_t key = st.reads[t][i];
    return static_cast<std::uint64_t>(TierOf(sh, sh.ShardFor(key)).Contains(key));
  });
  TracedPass(tracer, "ledger.tiered.Contains", 31, m,
             [&](std::size_t i) { return tiers[i]->Contains(k[i]); });
  TracedPass(tracer, "ledger.tiered.front.Contains", 32, m,
             [&](std::size_t i) { return tiers[i]->front().Contains(k[i]); });
  TracedPass(tracer, "ledger.segment.Contains", 33, m, [&](std::size_t i) {
    return tiers[i]->Segment(0).Contains(entity[i]);
  });

  // One erase pass over the hot keys, a span per erase, then re-insert.
  const std::uint32_t sp_erase = tracer.Name("ledger.tiered.Erase");
  vcf::LatencyHistogram erase_lat;
  std::uint64_t op = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::uint64_t key : st.hot[s]) {
      const std::uint64_t t0 = NowNs();
      TierOf(sh, s).Erase(key);
      const std::uint64_t t1 = NowNs();
      erase_lat.Record(t1 - t0);
      tracer.Record(0, sp_erase, t0, t1, OpId(34, 0, op++));
    }
  }
  std::uint64_t tombstones = 0;
  double probe_bytes = 0.0, entities = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    vcf::TieredFilter& t = TierOf(sh, s);
    tombstones += t.TombstoneCount();
    for (std::size_t g = 0; g < t.SegmentCount(); ++g) {
      probe_bytes += static_cast<double>(t.Segment(g).ProbeBytes());
      entities += static_cast<double>(t.Segment(g).EntityCount());
    }
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::uint64_t key : st.hot[s]) tier.Insert(key);
  }

  report.Layer("tiered.lookup_ns_1t", tier_ns, "ns");
  report.Layer("tiered.lookup_ns_4t", tier4_ns, "ns");
  report.Layer("tiered.front_lookup_ns", front_ns, "ns");
  report.Layer("tiered.erase_ns", erase_lat.MeanNanos(), "ns");
  report.Layer("tiered.tombstones", static_cast<double>(tombstones), "count");
  report.Layer("segment.probe_ns", seg_ns, "ns");
  report.Layer("segment.bits_per_entity", probe_bytes * 8.0 / entities, "bits");
  std::ostringstream s;
  s << "ledger tiered (1 thread, same keys): tier " << tier_ns << " ns = front "
    << front_ns << " ns + segment " << seg_ns << " ns + the rest "
    << tier_ns - front_ns - seg_ns << " ns; 4 threads " << tier4_ns
    << " ns per lookup (" << tier_ns / tier4_ns * kThreads
    << "x aggregate scaling on 4 threads); erase " << erase_lat.MeanNanos()
    << " ns mean with up to " << tombstones << " tombstones";
  report.Note(s.str());
}

}  // namespace perfbench
