// serve-loopback: an in-process VcfServer with default options (automatic
// poller choice, coalescing on, two workers) over sharded:4:vcf, driven by
// two VcfClient connections over loopback, for four threads in all. The
// filter fits in L3 and does little work per key, so per-request overhead
// (net, server, client) dominates. The only workload that reaches them.
//
// Phases: closed-loop single-key INSERT frames; an open loop of single-key
// frames (90/10 lookup/insert) at a fixed rate below saturation, every
// request timed from its due time and all requests due at once sent as one
// pipelined window; closed-loop LOOKUP_BATCH frames, then a 90/10 mix of
// batch frames; checkpoint cycles of the served filter.
#include <algorithm>
#include <memory>
#include <sstream>

#include "client/vcf_client.hpp"
#include "core/sharded_filter.hpp"
#include "harness/filter_factory.hpp"
#include "net/proto.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kServerThreads = 2;
constexpr unsigned kSlotsLog2 = 24;        // 2^24 slots x 14 bits = 28 MiB
// ~18% load after prefill; the wire inserts of a run (mostly the 90/10
// batch mix) add about as much again, which leaves room for a server a few
// times faster before the table fills.
constexpr std::uint64_t kPrefill = 3000000;
constexpr double kOpenLoopRate = 5000;     // requests/s per connection
constexpr std::size_t kBatchKeys = 4096;  // keys per batch frame
// Keys per closed-loop call: four frames in flight, so a slow wake-up of
// one side costs one round trip per four frames of server work.
constexpr std::size_t kCallKeys = 4 * kBatchKeys;
constexpr int kReloads = 15;
constexpr std::size_t kWindows = 30;  // per closed-loop phase
constexpr std::size_t kProbeKeys = 4096;

using vcf::client::VcfClient;
using vcf::server::VcfServer;

struct ServeState {
  std::unique_ptr<VcfServer> server;
  std::vector<std::unique_ptr<VcfClient>> clients;
  ~ServeState() {
    clients.clear();
    if (server) {
      server->RequestShutdown();
      server->Join();
    }
  }
};

std::unique_ptr<ServeState> BuildServe(const KeyStreams& keys) {
  if (kClients + kServerThreads > Nproc()) {
    throw std::runtime_error("serve-loopback needs " +
                             std::to_string(kClients + kServerThreads) + " CPUs");
  }
  auto s = std::make_unique<ServeState>();
  vcf::FilterSpec spec;
  vcf::ParseFilterKind("sharded:4:vcf", spec);
  spec.params = vcf::CuckooParams::ForSlotsLog2(kSlotsLog2);
  auto filter = vcf::MakeFilter(spec);
  std::vector<std::uint64_t> batch(4096);
  for (std::uint64_t i = 0; i < kPrefill; i += batch.size()) {
    const std::size_t n = std::min<std::uint64_t>(batch.size(), kPrefill - i);
    for (std::size_t j = 0; j < n; ++j) batch[j] = keys.At(Role::kFill, i + j);
    filter->InsertBatch({batch.data(), n});
  }
  VcfServer::Options opts;
  opts.threads = kServerThreads;
  opts.filter_internally_locked = true;
  s->server = std::make_unique<VcfServer>(std::move(filter), opts);
  std::string error;
  if (!s->server->Start(&error)) throw std::runtime_error("server start: " + error);
  for (unsigned c = 0; c < kClients; ++c) {
    auto client = std::make_unique<VcfClient>();
    VcfClient::Options copts;
    copts.batch_frame_keys = kBatchKeys;
    copts.batch_pipeline = 4;
    if (!client->ConnectCluster({{"127.0.0.1", s->server->port()}}, copts)) {
      throw std::runtime_error("connect: " + client->last_error());
    }
    s->clients.push_back(std::move(client));
  }
  return s;
}

/// Per-client reference: wire keys [0, sent) were sent as inserts; the
/// indices in `unacked` were refused or lost.
struct WireLive {
  std::uint64_t sent = 0;
  std::vector<std::uint64_t> unacked;
};

struct ClientTally {
  std::uint64_t lookups = 0, fn = 0, misses = 0, miss_pos = 0;
  std::uint64_t inserts = 0, refused = 0, rpc = 0, rpc_fail = 0;
  std::uint64_t keys_served = 0;
};

/// Batch lookups of `keys` over the wire; answers into `out`.
bool WireLookup(VcfClient& c, const std::vector<std::uint64_t>& keys,
                std::vector<bool>& out) {
  out.assign(keys.size(), false);
  std::unique_ptr<bool[]> res(new bool[kBatchKeys]);
  for (std::size_t at = 0; at < keys.size(); at += kBatchKeys) {
    const std::size_t n = std::min(kBatchKeys, keys.size() - at);
    if (!c.LookupBatch({keys.data() + at, n}, res.get())) return false;
    for (std::size_t j = 0; j < n; ++j) out[at + j] = res[j];
  }
  return true;
}

}  // namespace

void ServeLoopback(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  std::unique_ptr<ServeState> st;
  const double setup_s = TimedSetup(
      3, [&] { st.reset(); }, [&] { st = BuildServe(keys); });
  VcfServer& server = *st->server;
  vcf::Filter& filter = server.filter();
  const double prefill_bits =
      static_cast<double>(filter.MemoryBytes()) * 8.0 / static_cast<double>(kPrefill);
  report.Note(std::string("server: ") + filter.Name() + ", poller " +
              vcf::server::Poller::BackendName(server.resolved_backend()) +
              ", coalescing on, " + std::to_string(kServerThreads) + " workers, " +
              std::to_string(kClients) + " client connections");
  const std::uint32_t sp_insert = tracer.Name("client.Insert");
  const std::uint32_t sp_pipe = tracer.Name("client.Pipeline");
  const std::uint32_t sp_batch = tracer.Name("client.LookupBatch");
  const std::uint32_t sp_ibatch = tracer.Name("client.InsertBatch");

  std::vector<WireLive> live(kClients);
  std::vector<ClientTally> ins(kClients), open(kClients), lk(kClients), mix(kClients);
  std::vector<WindowedLatency> ins_lat(kClients, WindowedLatency(0.1));
  std::vector<WindowedLatency> req_lat(kClients, WindowedLatency(0.2));
  std::vector<std::uint64_t> late(kClients, 0), max_window(kClients, 0);
  // Closed-loop phases count keys per window; starts are set by client 0
  // between barriers, so both clients share the windows.
  const double ins_budget = Budget(args, 0.15), lk_budget = Budget(args, 0.15),
               mix_budget = Budget(args, 0.15);
  WindowRates ins_rate(0, ins_budget / kWindows, kWindows),
      lk_rate(0, lk_budget / kWindows, kWindows),
      mix_rate(0, mix_budget / kWindows, kWindows);
  std::vector<WindowRates> ins_r(kClients, ins_rate), lk_r(kClients, lk_rate),
      mix_r(kClients, mix_rate);
  Barrier b(kClients);

  RunThreads(kClients, [&](unsigned t) {
    VcfClient& c = *st->clients[t];
    Rng rng(keys.At(Role::kChoice, 0, t));
    WireLive& w = live[t];
    auto next_insert = [&] { return keys.At(Role::kWire, w.sent++, t); };
    std::uint64_t miss_serial = 0;

    // Phase 1: closed-loop single-key inserts, one RTT each.
    if (t == 0) ins_rate = WindowRates(NowNs(), ins_budget / kWindows, kWindows);
    b.Wait();
    ins_r[t] = ins_rate;
    const std::uint64_t ins_t0 = NowNs();
    for (std::uint64_t prev = ins_t0; ins_r[t].Add(prev, prev == ins_t0 ? 0 : 1);) {
      const std::uint64_t idx = w.sent;
      bool ok = false;
      const bool acked = c.Insert(next_insert(), &ok);
      ++ins[t].inserts;
      if (!ok) ++ins[t].rpc_fail;
      if (!acked) {
        ++ins[t].refused;
        w.unacked.push_back(idx);
      }
      const std::uint64_t now = NowNs();
      ins_lat[t].Add(prev - ins_t0, now - prev);
      tracer.Record(t, sp_insert, prev, now, OpId(1, t, idx));
      prev = now;
    }
    b.Wait();

    // Phase 2: open loop. Requests due by now go out as one pipelined
    // window of single-key frames (lookups and inserts in separate runs).
    b.Wait();
    {
      const double interval = 1e9 / kOpenLoopRate;
      const std::uint64_t start = NowNs();
      const std::uint64_t end = start + static_cast<std::uint64_t>(Budget(args, 0.3) * 1e9);
      std::vector<std::uint64_t> look, put, put_i;
      std::vector<std::uint8_t> kind;
      std::unique_ptr<bool[]> res(new bool[4096]);
      std::uint64_t i = 0;
      auto due_at = [&](std::uint64_t k) {
        return start + static_cast<std::uint64_t>(static_cast<double>(k) * interval);
      };
      while (due_at(i) < end) {
        WaitUntil(due_at(i));
        const std::uint64_t now = NowNs();
        late[t] = std::max(late[t], now - due_at(i));
        look.clear(); put.clear(); put_i.clear(); kind.clear();
        const std::uint64_t first = i;
        while (due_at(i) <= now && due_at(i) < end && i - first < 4096) {
          const std::uint64_t r = rng.Below(20);
          if (r < 18) {
            const bool hit = r < 9;
            look.push_back(hit ? keys.At(Role::kFill, rng.Below(kPrefill))
                               : keys.At(Role::kMiss, miss_serial++, t));
            kind.push_back(hit ? 0 : 1);
          } else {
            put_i.push_back(w.sent);
            put.push_back(next_insert());
          }
          ++i;
        }
        max_window[t] = std::max<std::uint64_t>(max_window[t], i - first);
        const std::uint64_t s = NowNs();
        if (!look.empty()) {
          const bool ok = c.PipelineLookups(look, res.get(), look.size());
          ++open[t].rpc;
          if (!ok) ++open[t].rpc_fail;
          for (std::size_t j = 0; j < look.size(); ++j) {
            ++open[t].lookups;
            if (kind[j] == 0) {
              open[t].fn += (ok && res[j]) ? 0 : 1;
            } else {
              ++open[t].misses;
              open[t].miss_pos += (ok && res[j]) ? 1 : 0;
            }
          }
        }
        if (!put.empty()) {
          const bool ok = c.PipelineInserts(put, res.get(), put.size());
          ++open[t].rpc;
          if (!ok) ++open[t].rpc_fail;
          for (std::size_t j = 0; j < put.size(); ++j) {
            ++open[t].inserts;
            if (!ok || !res[j]) {
              ++open[t].refused;
              w.unacked.push_back(put_i[j]);
            }
          }
        }
        const std::uint64_t done = NowNs();
        tracer.Record(t, sp_pipe, s, done, OpId(2, t, first));
        for (std::uint64_t k = first; k < i; ++k) {
          req_lat[t].Add(due_at(k) - start, done - due_at(k));
        }
      }
    }

    // Phase 3: closed-loop batch frames: lookups, then a 90/10 mix of nine
    // lookup batches to one insert batch.
    std::vector<std::uint64_t> batch(kCallKeys);
    std::vector<std::uint8_t> hit(kCallKeys);
    std::unique_ptr<bool[]> res(new bool[kCallKeys]);
    auto lookup_batch = [&](ClientTally& x, unsigned phase) {
      for (std::size_t j = 0; j < kCallKeys; ++j) {
        hit[j] = (rng.Next() & 1) != 0;
        batch[j] = hit[j] ? keys.At(Role::kFill, rng.Below(kPrefill))
                          : keys.At(Role::kMiss, miss_serial++, t);
      }
      const std::uint64_t s = NowNs();
      const bool ok = c.LookupBatch(batch, res.get());
      tracer.Record(t, sp_batch, s, NowNs(), OpId(phase, t, x.rpc));
      ++x.rpc;
      if (!ok) ++x.rpc_fail;
      for (std::size_t j = 0; j < kCallKeys; ++j) {
        ++x.lookups;
        if (hit[j]) {
          x.fn += (ok && res[j]) ? 0 : 1;
        } else {
          ++x.misses;
          x.miss_pos += (ok && res[j]) ? 1 : 0;
        }
      }
      x.keys_served += kCallKeys;
    };
    b.Wait();
    if (t == 0) lk_rate = WindowRates(NowNs(), lk_budget / kWindows, kWindows);
    b.Wait();
    lk_r[t] = lk_rate;
    for (std::uint64_t done = 0; lk_r[t].Add(NowNs(), done); done = kCallKeys) {
      lookup_batch(lk[t], 3);
    }
    b.Wait();
    if (t == 0) mix_rate = WindowRates(NowNs(), mix_budget / kWindows, kWindows);
    b.Wait();
    mix_r[t] = mix_rate;
    for (std::uint64_t round = 0; mix_r[t].Add(NowNs(), round == 0 ? 0 : kCallKeys);
         ++round) {
      if (round % 10 != 9) {
        lookup_batch(mix[t], 4);
        continue;
      }
      const std::uint64_t base = w.sent;
      for (std::size_t j = 0; j < kCallKeys; ++j) batch[j] = next_insert();
      bool ok = false;
      const std::uint64_t s = NowNs();
      c.InsertBatch(batch, res.get(), &ok);
      tracer.Record(t, sp_ibatch, s, NowNs(), OpId(4, t, mix[t].rpc));
      ++mix[t].rpc;
      if (!ok) ++mix[t].rpc_fail;
      for (std::size_t j = 0; j < kCallKeys; ++j) {
        ++mix[t].inserts;
        if (!ok || !res[j]) {
          ++mix[t].refused;
          w.unacked.push_back(base + j);
        }
      }
      mix[t].keys_served += kCallKeys;
    }
  });
  for (unsigned t = 1; t < kClients; ++t) {
    ins_r[0].Merge(ins_r[t]);
    lk_r[0].Merge(lk_r[t]);
    mix_r[0].Merge(mix_r[t]);
  }

  ClientTally all_open, all_lk, all_mix, all_ins;
  for (unsigned t = 0; t < kClients; ++t) {
    for (auto [dst, src] : {std::pair{&all_open, &open[t]}, std::pair{&all_lk, &lk[t]},
                            std::pair{&all_mix, &mix[t]}, std::pair{&all_ins, &ins[t]}}) {
      dst->lookups += src->lookups; dst->fn += src->fn; dst->misses += src->misses;
      dst->miss_pos += src->miss_pos; dst->inserts += src->inserts;
      dst->refused += src->refused; dst->rpc += src->rpc;
      dst->rpc_fail += src->rpc_fail; dst->keys_served += src->keys_served;
    }
    if (t > 0) {
      ins_lat[0].Merge(ins_lat[t]);
      req_lat[0].Merge(req_lat[t]);
    }
  }
  report.Ops("insert", all_ins.inserts + all_open.inserts + all_mix.inserts,
             all_ins.refused + all_open.refused + all_mix.refused);
  report.Ops("lookup", all_open.lookups + all_lk.lookups + all_mix.lookups,
             all_open.fn + all_lk.fn + all_mix.fn);
  report.Ops("rpc", all_ins.inserts + all_open.rpc + all_lk.rpc + all_mix.rpc,
             all_ins.rpc_fail + all_open.rpc_fail + all_lk.rpc_fail + all_mix.rpc_fail);
  {
    const auto& cnt = server.counters();
    std::ostringstream s;
    s << "open loop " << kOpenLoopRate << "/s per connection: generator at most "
      << std::max(late[0], late[1]) * 1e-3 << " us late, largest pipelined window "
      << std::max(max_window[0], max_window[1]) << " frames; server coalesced "
      << cnt.coalesced_frames.load() << " frames in " << cnt.coalesced_runs.load()
      << " runs";
    report.Note(s.str());
  }

  // Checkpoint cycles of the served filter, with the clients idle; then a
  // fixed probe set must answer identically over the wire.
  VcfClient& c0 = *st->clients[0];
  std::vector<std::uint64_t> probe;
  for (std::size_t i = 0; i < kProbeKeys; ++i) {
    probe.push_back(keys.At(Role::kFill, i * (kPrefill / kProbeKeys)));
    probe.push_back(keys.At(Role::kProbe, i));
  }
  std::vector<bool> before, after;
  const bool probe_ok = WireLookup(c0, probe, before);
  std::vector<double> reload;
  bool reload_ok = true;
  for (int c = 0; c < kReloads; ++c) {
    const std::uint64_t t0 = NowNs();
    std::stringstream blob;
    reload_ok = reload_ok && filter.SaveState(blob) && filter.LoadState(blob);
    reload.push_back(SecondsSince(t0));
  }
  report.Check(reload_ok, "served filter SaveState/LoadState succeed");
  report.Check(probe_ok && WireLookup(c0, probe, after) && before == after,
               "a fixed probe set answers identically over the wire after save/load");

  // Every key the server ACKed answers true over the wire; ItemCount
  // matches prefill + ACKed inserts; the miss FPR stays under Eq. 10.
  std::uint64_t acked = 0, wire_fn = 0;
  bool wire_ok = true;
  for (unsigned t = 0; t < kClients; ++t) {
    std::vector<std::uint64_t> k;
    std::sort(live[t].unacked.begin(), live[t].unacked.end());
    for (std::uint64_t i = 0; i < live[t].sent; ++i) {
      if (!std::binary_search(live[t].unacked.begin(), live[t].unacked.end(), i)) {
        k.push_back(keys.At(Role::kWire, i, t));
      }
    }
    acked += k.size();
    std::vector<bool> ans;
    wire_ok = wire_ok && WireLookup(c0, k, ans);
    for (bool a : ans) wire_fn += a ? 0 : 1;
  }
  report.Check(wire_ok && wire_fn == 0,
               "every ACKed insert (" + std::to_string(acked) +
                   ") answers true over the wire");
  report.Check(all_open.fn + all_lk.fn + all_mix.fn == 0,
               "no false negatives among prefilled keys over the wire");
  report.Check(filter.ItemCount() == kPrefill + acked,
               "ItemCount() == prefill + ACKed inserts (" +
                   std::to_string(kPrefill + acked) + ")");
  const double alpha = filter.LoadFactor();
  const double r = BalancedR(14);
  const double bound = Eq10Bound(14, r, 4, alpha);
  // Wire misses are distinct keys; the bound is taken at the final (highest)
  // load of the run.
  const std::uint64_t miss_n = all_open.misses + all_lk.misses + all_mix.misses;
  const double fpr =
      static_cast<double>(all_open.miss_pos + all_lk.miss_pos + all_mix.miss_pos) /
      static_cast<double>(miss_n);
  std::ostringstream what;
  what << "Eq. 10 bound over the wire (alpha=" << alpha << ", r=" << r << ")";
  CheckFpr(report, fpr, miss_n, bound, what.str());

  report.E2e("setup_s", setup_s, "s");
  report.E2e("insert_mops", ins_r[0].MedianMops(), "Mops/s");
  ReportLatency(report, "insert", ins_lat[0], true);
  report.Note("insert windows: " + ins_r[0].Summary() + "; lookup windows: " +
              lk_r[0].Summary() + "; mix windows: " + mix_r[0].Summary());
  report.E2e("lookup_mops", lk_r[0].MedianMops(), "Mops/s");
  report.E2e("mixed_mops", mix_r[0].MedianMops(), "Mops/s");
  // At the prefill load, so the figure does not depend on how many wire
  // inserts a run managed.
  report.E2e("bits_per_key", prefill_bits, "bits");
  report.E2e("reload_s", vcf::Quantile(reload, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  report.E2e("serve_mops",
             CombinedMops(all_lk.keys_served, lk_r[0].MedianMops(),
                          all_mix.keys_served, mix_r[0].MedianMops()),
             "Mops/s");
  ReportLatency(report, "request", req_lat[0], false);
}

void LedgerServe(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  std::unique_ptr<ServeState> st = BuildServe(keys);
  VcfServer& server = *st->server;
  VcfClient& c = *st->clients[0];
  const std::size_t m = std::size_t{1} << 16;
  std::vector<std::uint64_t> k(m);
  for (std::size_t i = 0; i < m; ++i) {
    k[i] = (i & 1) ? keys.At(Role::kFill, i) : keys.At(Role::kMiss, i);
  }

  // Codec cost on the workload's own frames: single-key LOOKUP requests.
  std::vector<std::uint8_t> buf;
  buf.reserve(64);
  const double enc_ns = BulkNs(m, [&](std::size_t i) {
    buf.clear();
    vcf::net::EncodeKeyRequest(buf, vcf::net::Opcode::kLookup,
                               static_cast<std::uint32_t>(i), k[i]);
    return buf.size();
  });
  std::vector<std::vector<std::uint8_t>> payloads(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::uint8_t> frame;
    vcf::net::EncodeKeyRequest(frame, vcf::net::Opcode::kLookup,
                               static_cast<std::uint32_t>(i), k[i]);
    vcf::net::FrameBuffer fb;
    std::span<const std::uint8_t> payload;
    fb.Append(frame);
    fb.Next(payload);
    payloads[i].assign(payload.begin(), payload.end());
  }
  vcf::net::Request req;
  const double dec_ns = BulkNs(m, [&](std::size_t i) {
    return static_cast<int>(vcf::net::DecodeRequest(payloads[i], req)) + req.key;
  });
  TracedPass(tracer, "ledger.net.EncodeKeyRequest", 41, m, [&](std::size_t i) {
    buf.clear();
    vcf::net::EncodeKeyRequest(buf, vcf::net::Opcode::kLookup,
                               static_cast<std::uint32_t>(i), k[i]);
    return buf.size();
  });
  TracedPass(tracer, "ledger.net.DecodeRequest", 42, m, [&](std::size_t i) {
    return static_cast<int>(vcf::net::DecodeRequest(payloads[i], req)) + req.key;
  });

  // Bare-transport floor: PING round trips.
  const std::uint32_t sp_ping = tracer.Name("ledger.client.Ping");
  std::vector<double> rtt;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t s = NowNs();
    c.Ping();
    const std::uint64_t e = NowNs();
    rtt.push_back(static_cast<double>(e - s) * 1e-3);
    tracer.Record(0, sp_ping, s, e, OpId(43, 0, static_cast<std::uint64_t>(i)));
  }

  // Coalescing: pipelined single-key lookups, frames per coalesced run.
  const auto& cnt = server.counters();
  const std::uint64_t f0 = cnt.coalesced_frames.load(), r0 = cnt.coalesced_runs.load();
  std::unique_ptr<bool[]> res(new bool[m]);
  c.PipelineLookups(k, res.get(), 64);
  const double frames = static_cast<double>(cnt.coalesced_frames.load() - f0);
  const double runs = static_cast<double>(cnt.coalesced_runs.load() - r0);

  // Bytes on the wire per key of a LOOKUP_BATCH frame and its response.
  std::vector<std::uint8_t> rq, rs;
  vcf::net::EncodeBatchRequest(rq, vcf::net::Opcode::kLookupBatch, 1,
                               {k.data(), kBatchKeys});
  std::unique_ptr<bool[]> bits(new bool[kBatchKeys]());
  vcf::net::EncodeBatchResponse(rs, vcf::net::Opcode::kLookupBatch, 1,
                                {bits.get(), kBatchKeys}, 0);

  report.Layer("net.encode_ns_per_frame", enc_ns, "ns");
  report.Layer("net.decode_ns_per_frame", dec_ns, "ns");
  report.Layer("server.ping_rtt_us", vcf::Quantile(rtt, 0.5), "us");
  report.Layer("server.coalesced_frames_per_run", runs > 0 ? frames / runs : 0.0, "count");
  report.Layer("client.wire_bytes_per_key",
               static_cast<double>(rq.size() + rs.size()) / kBatchKeys, "B");
  std::ostringstream s;
  s << "ledger serve: ping RTT median " << vcf::Quantile(rtt, 0.5) << " us; pipelined lookups "
    << frames << " frames in " << runs << " coalesced runs; LOOKUP_BATCH of "
    << kBatchKeys << " keys = " << rq.size() << " request + " << rs.size()
    << " response bytes";
  report.Note(s.str());
}

}  // namespace perfbench
