// vcf_perfbench: the repository benchmark (see perfbench/README.md).
//
//   vcf_perfbench --workload <leaf-fill|stack-mixed|tiered-cold|serve-loopback>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--out_dir <dir>]
//
// Untraced runs print every end-to-end metric. A traced run first runs the
// workload untraced, then again with spans around every call into the
// outermost layer (the difference is the tracing overhead), then every
// per-layer ledger section, and prints the per-layer metrics. The last line
// of standard output is always the JSON result; exit status 1 means the
// run could not complete (nothing is printed as a result then).
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || kv.count("workload") == 0) return false;
  args->workload = kv["workload"];
  if (kv.count("seed")) args->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  if (kv.count("seconds")) args->seconds = std::strtod(kv["seconds"].c_str(), nullptr);
  if (kv.count("trace")) args->trace = kv["trace"] == "1";
  if (kv.count("commit")) args->commit = kv["commit"];
  if (kv.count("out_dir")) args->out_dir = kv["out_dir"];
  return args->seconds > 0.0;
}

using WorkloadFn = void (*)(const Args&, perfbench::Report&, perfbench::Tracer&);

WorkloadFn Find(const std::string& name) {
  if (name == "leaf-fill") return perfbench::LeafFill;
  if (name == "stack-mixed") return perfbench::StackMixed;
  if (name == "tiered-cold") return perfbench::TieredCold;
  if (name == "serve-loopback") return perfbench::ServeLoopback;
  return nullptr;
}

void MakeDirs(const std::string& path) {
  std::string at;
  std::istringstream parts(path);
  std::string part;
  if (!path.empty() && path[0] == '/') at = "/";
  while (std::getline(parts, part, '/')) {
    if (part.empty()) continue;
    at += part + "/";
    ::mkdir(at.c_str(), 0755);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: vcf_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] [--out_dir <dir>]\n";
    return 1;
  }
  const WorkloadFn run = Find(args.workload);
  if (run == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 1;
  }
  try {
    perfbench::Report report;
    report.Note("provenance: " + perfbench::Provenance(args));
    if (!args.trace) {
      perfbench::Tracer off(false);
      run(args, report, off);
      report.Print(false);
      return 0;
    }
    // Traced run: untraced pass for reference, traced pass, then the
    // ledger. Only the traced pass's counts go into attempted/failed.
    perfbench::Report untraced;
    perfbench::Tracer off(false);
    run(args, untraced, off);
    perfbench::Tracer tracer(true);
    run(args, report, tracer);
    for (const auto& [name, vu] : report.e2e()) {
      for (const auto& [uname, uvu] : untraced.e2e()) {
        if (uname != name) continue;
        std::ostringstream s;
        s << "tracing overhead " << name << ": traced " << vu.first << " vs untraced "
          << uvu.first << " " << vu.second << " ("
          << (uvu.first != 0.0 ? (vu.first / uvu.first - 1.0) * 100.0 : 0.0)
          << "% of untraced)";
        report.Note(s.str());
      }
    }
    report.Check(untraced.correct(), "untraced reference pass passed its checks");
    perfbench::LedgerLeaf(args, report, tracer);
    perfbench::LedgerStack(args, report, tracer);
    perfbench::LedgerTiered(args, report, tracer);
    perfbench::LedgerServe(args, report, tracer);
    MakeDirs(args.out_dir);
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::ostringstream s;
    s << "spans: " << tracer.SpanCount() << " recorded, " << tracer.Dropped()
      << " past the per-thread cap counted only; written to " << stem
      << ".spans.tsv";
    report.Note(s.str());
    report.Check(tracer.Write(stem + ".spans.tsv"), "span file written");
    report.Check(report.WriteLayerJson(stem + ".layers.json"),
                 "per-layer JSON written");
    report.Print(true);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
