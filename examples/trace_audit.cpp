// trace_audit: offline safety audit (and optional waterfall) over a trace
// JSONL dump — the post-run CI gate behind the live SafetyAuditor.
//
//   $ ./examples/trace_audit run.trace.jsonl
//   $ ./examples/trace_audit --step-threshold=68.5 --final-threshold=222
//         --expect-equivocation run.trace.jsonl
//
// Exit codes: 0 = clean (and expectations met), 1 = safety violation (or an
// expected equivocation never appeared), 2 = unreadable/malformed input.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/safety_auditor.h"
#include "src/obs/trace_collector.h"

using namespace algorand;

namespace {

struct Options {
  std::string path;
  double step_threshold = 0;   // 0 = quorum checks off (unknown parameters).
  double final_threshold = 0;
  bool expect_equivocation = false;
  bool waterfall = false;
  bool help = false;
};

bool ParseValueFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  *value = arg + prefix.size();
  return true;
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseValueFlag(argv[i], "step-threshold", &v)) {
      opt.step_threshold = std::stod(v);
    } else if (ParseValueFlag(argv[i], "final-threshold", &v)) {
      opt.final_threshold = std::stod(v);
    } else if (strcmp(argv[i], "--expect-equivocation") == 0) {
      opt.expect_equivocation = true;
    } else if (strcmp(argv[i], "--waterfall") == 0) {
      opt.waterfall = true;
    } else if (argv[i][0] == '-') {
      opt.help = true;
    } else if (opt.path.empty()) {
      opt.path = argv[i];
    } else {
      opt.help = true;
    }
  }
  if (opt.path.empty()) {
    opt.help = true;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (opt.help) {
    printf(
        "usage: trace_audit [flags] TRACE.jsonl\n"
        "  --step-threshold=F     weighted-vote quorum for ordinary steps\n"
        "  --final-threshold=F    weighted-vote quorum for the final step\n"
        "                         (omit both to skip quorum checks)\n"
        "  --expect-equivocation  fail unless the trace shows an equivocating\n"
        "                         proposer (adversarial-run regression gate)\n"
        "  --waterfall            also print the per-round latency waterfall\n");
    return 2;
  }

  std::ifstream in(opt.path, std::ios::binary);
  if (!in) {
    fprintf(stderr, "trace_audit: cannot open %s\n", opt.path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto events = ParseTraceJsonl(buf.str());
  if (!events) {
    fprintf(stderr, "trace_audit: %s is not a valid trace JSONL dump\n", opt.path.c_str());
    return 2;
  }

  SafetyAuditorConfig cfg;
  cfg.step_threshold = opt.step_threshold;
  cfg.final_threshold = opt.final_threshold;
  SafetyAuditor auditor(cfg);
  auditor.AddEvents(*events);

  printf("trace_audit: %zu events from %s\n%s", events->size(), opt.path.c_str(),
         auditor.Report().c_str());

  if (opt.waterfall) {
    TraceCollector collector;
    collector.AddEvents(*events);
    printf("%s", TraceCollector::ToText(collector.Waterfalls()).c_str());
  }

  if (opt.expect_equivocation && auditor.equivocations() == 0) {
    fprintf(stderr, "trace_audit: expected an equivocation but the trace shows none\n");
    return 1;
  }
  return auditor.ok() ? 0 : 1;
}
