// lrbench: the benchmark program.
//
//   lrbench gen --workload W --seed N --seconds S --dir D [--tiny]
//   lrbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//               [--tiny] [--perturb-reference] [--spread-arrivals]
//
// `gen` writes the inputs; `run` measures and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Earlier lines
// carry the machine context. run.py drives both.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: lrbench gen|run --workload W --seed N --seconds S "
               "[--trace 0|1] --dir D [--tiny] [--perturb-reference] "
               "[--spread-arrivals]\n");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void PrintReport(const lrbench::Report& r) {
  std::printf("context {");
  for (size_t i = 0; i < r.context.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                JsonEscape(r.context[i].first).c_str(),
                JsonEscape(r.context[i].second).c_str());
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const lrbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string mode = argv[1];
  lrbench::Options opt;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb-reference") {
      opt.perturb_reference = true;
    } else if (a == "--spread-arrivals") {
      opt.spread_arrivals = true;
    } else if (v == nullptr) {
      Usage();
      return 2;
    } else if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
      ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
      ++i;
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
      ++i;
    } else if (a == "--dir") {
      opt.dir = v;
      have_dir = true;
      ++i;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_dir || !lrbench::KnownWorkload(opt.workload) ||
      !(opt.seconds > 0.0)) {
    Usage();
    return 2;
  }
  if (mode == "gen") return lrbench::Generate(opt) ? 0 : 1;
  if (mode != "run") {
    Usage();
    return 2;
  }
  lrbench::Report report;
  if (!lrbench::Run(opt, &report)) return 1;
  PrintReport(report);
  return 0;
}
