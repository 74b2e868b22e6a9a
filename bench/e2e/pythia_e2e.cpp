// End-to-end job benchmark: runs one workload through hadoop -> core -> sdn
// -> net for --seconds, one single-threaded pass after another, checks
// every pass, and prints `workload metric value unit` lines followed by one
// JSON result line. See README.md for the metrics and workloads.
//
//   pythia_e2e --workload W [--seed S] [--seconds N] [--trace 0|1]
//              [--smoke] [--expected FILE] [--json-out FILE]
//              [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics (medians over passes); --trace 1
// adds one traced pass (see trace.hpp) and reports the per-layer metrics.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string expected;
  std::string json_out;
  std::string spans_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (arg == "--expected") {
      o.expected = value;
    } else if (arg == "--json-out") {
      o.json_out = value;
    } else if (arg == "--spans-out") {
      o.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds >= 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest decimal that round-trips the double: every digit measured.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// VmHWM (peak resident set) of this process so far, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The checksum pinned under `key` in a flat {"key": "hex", ...} file.
std::optional<std::string> pinned(const std::string& path,
                                  const std::string& key) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string quoted = "\"" + key + "\"";
  const std::size_t at = text.find(quoted);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t open = text.find('"', text.find(':', at + quoted.size()));
  const std::size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) {
    return std::nullopt;
  }
  return text.substr(open + 1, close - open - 1);
}

/// Medians over the passes of what every pass measures, plus peak memory.
struct RunSummary {
  double peak_rss_mb = 0.0;  // after the first pass
  double wall_s = 0.0;
  double setup_s = 0.0;
  double decision_p50_us = 0.0;
  double decision_p99_us = 0.0;
};

RunSummary summarize(std::vector<PassResult>& passes, double rss_mb) {
  std::vector<double> wall, setup, p50, p99;
  for (PassResult& p : passes) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    p50.push_back(p.decisions.quantile(0.50));
    p99.push_back(p.decisions.quantile(0.99));
  }
  return {rss_mb, median(wall), median(setup), median(p50), median(p99)};
}

std::vector<Metric> end_to_end(const RunSummary& m) {
  return {
      {"wall_s", m.wall_s, "s"},
      {"setup_s", m.setup_s, "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> per_layer(const Counts& c, const RunSummary& m,
                              TraceResult& tr) {
  const double total = tr.total_s;
  const auto used = [](const LayerTime& l) {
    return l.replay_ok ? l.self_s : 0.0;
  };
  const double engine =
      total - used(tr.fabric) - used(tr.routing) - used(tr.control);
  WeightedSamples touch;
  for (const double us : tr.first_touch_us) touch.add(us, 1);
  const double warm_p99 = tr.warm_decisions.quantile(0.99);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ok = [](const LayerTime& l) { return l.replay_ok ? 1.0 : 0.0; };
  return {
      {"sim.events", d(c.events), "count"},
      {"sim.scheduled", d(c.scheduled), "count"},
      {"sim.cancelled_ratio", ratio(d(c.cancelled), d(c.scheduled)), "ratio"},
      {"fabric.flows_started", d(c.flows_started), "count"},
      {"fabric.peak_active_flows", d(tr.peak_active_flows), "count"},
      {"fabric.recomputes", d(c.recomputes), "count"},
      {"fabric.full_fills", d(c.full_fills), "count"},
      {"fabric.flows_touched", d(c.flows_touched), "count"},
      {"fabric.links_touched", d(c.links_touched), "count"},
      {"fabric.flows_per_recompute",
       ratio(d(c.flows_touched), d(c.recomputes)), "ratio"},
      {"fabric.deferred_recomputes", d(c.deferred_recomputes), "count"},
      {"fabric.reroutes", d(tr.reroutes), "count"},
      {"routing.pairs_materialized", d(c.pairs_materialized), "count"},
      {"hadoop.maps", d(c.maps), "count"},
      {"hadoop.fetches", d(c.fetches), "count"},
      {"hadoop.remote_shuffle_gb", c.remote_shuffle_bytes / 1e9, "GB"},
      {"hadoop.map_retries", d(c.map_retries), "count"},
      {"core.intents", d(c.intents), "count"},
      {"core.aggregates", d(c.aggregates), "count"},
      {"core.batches", d(c.batches), "count"},
      {"core.intents_per_batch", ratio(d(c.intents), d(c.batches)), "ratio"},
      {"core.allocations", d(c.allocations), "count"},
      {"core.reallocations", d(c.reallocations), "count"},
      {"core.refused", d(c.refused), "count"},
      {"sdn.install_attempts", d(c.install_attempts), "count"},
      {"sdn.rules_installed", d(c.rules_installed), "count"},
      {"sdn.install_failures", d(c.install_failures), "count"},
      {"sdn.install_retries", d(c.install_retries), "count"},
      {"sdn.install_success_ratio",
       c.install_attempts == 0
           ? 1.0
           : 1.0 - ratio(d(c.install_failures), d(c.install_attempts)),
       "ratio"},
      {"sdn.flow_mods", d(c.flow_mods), "count"},
      {"trace.wall_s", total, "s"},
      {"trace.overhead", ratio(total, m.wall_s) - 1.0, "ratio"},
      {"fabric.self_s", used(tr.fabric), "s"},
      {"fabric.share", ratio(used(tr.fabric), total), "ratio"},
      {"fabric.replay_ok", ok(tr.fabric), "bool"},
      {"routing.self_s", used(tr.routing), "s"},
      {"routing.share", ratio(used(tr.routing), total), "ratio"},
      {"routing.first_touch_p50_us", touch.quantile(0.50), "us"},
      {"routing.first_touch_p99_us", touch.quantile(0.99), "us"},
      {"routing.replay_ok", ok(tr.routing), "bool"},
      {"control.self_s", used(tr.control), "s"},
      {"control.share", ratio(used(tr.control), total), "ratio"},
      {"control.replay_ok", ok(tr.control), "bool"},
      {"engine.self_s", engine, "s"},
      {"engine.share", ratio(engine, total), "ratio"},
      {"decision.p50_us", m.decision_p50_us, "us"},
      {"decision.p99_us", m.decision_p99_us, "us"},
      {"decision.routing_share",
       m.decision_p99_us > 0.0 ? 1.0 - warm_p99 / m.decision_p99_us : 0.0,
       "ratio"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics,
                        const std::string& extra) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}" + extra + "}";
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.seed, opt.smoke);
  bool correct = true;
  const auto fail = [&correct](const std::string& why) {
    correct = false;
    std::fprintf(stderr, "FAIL %s\n", why.c_str());
  };

  // Peak memory is read after the first pass: later passes reuse a heap
  // that earlier ones fragmented, so the high-water mark would otherwise
  // depend on how many passes fit into --seconds.
  const auto start = Clock::now();
  std::vector<PassResult> passes;
  passes.push_back(run_pass(w));
  const double rss_mb = peak_rss_mib();
  while (seconds_between(start, Clock::now()) < opt.seconds) {
    passes.push_back(run_pass(w));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& why : p.failures) fail(why);
    if (p.checksum != passes.front().checksum) {
      fail("behaviour checksum differs between passes");
    }
  }
  const std::uint64_t checksum = passes.front().checksum;
  std::fprintf(stderr, "%s: checksum %s, %zu passes, wall_s", w.name.c_str(),
               hex(checksum).c_str(), passes.size());
  for (const PassResult& p : passes) std::fprintf(stderr, " %.4f", p.wall_s);
  std::fprintf(stderr, "\n");
  if (opt.seed == 1 && !opt.expected.empty()) {
    const std::string key = w.name + (opt.smoke ? ".smoke" : "");
    const auto want = pinned(opt.expected, key);
    if (!want.has_value()) {
      fail("no checksum pinned for " + key + " in " + opt.expected);
    } else if (*want != hex(checksum)) {
      fail("checksum " + hex(checksum) + " != pinned " + *want);
    }
  }

  const RunSummary summary = summarize(passes, rss_mb);
  // The result carries the end-to-end metrics, or with --trace 1 the
  // per-layer ones; the text lines always start with the end-to-end ones.
  std::vector<Metric> text = end_to_end(summary);
  std::vector<Metric> metrics = text;
  if (opt.trace) {
    SpanLog spans(w.name);
    TraceResult tr = run_traced(w, spans);
    for (const std::string& why : tr.failures) fail("traced pass: " + why);
    if (tr.checksum != checksum) {
      fail("traced pass changed behaviour (checksum " + hex(tr.checksum) +
           ")");
    }
    for (const LayerTime* l : {&tr.fabric, &tr.routing, &tr.control}) {
      if (!l->replay_ok) {
        std::fprintf(stderr, "replay check failed: %s\n", l->why.c_str());
      }
    }
    metrics = per_layer(passes.front().counts, summary, tr);
    text.insert(text.end(), metrics.begin(), metrics.end());
    if (!opt.spans_out.empty() && !spans.write(opt.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   opt.spans_out.c_str());
    }
  }

  for (const Metric& m : text) {
    std::printf("%s %s %s %s\n", w.name.c_str(), m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s failed_ratio %s 1\n", w.name.c_str(),
              number(ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)))
                  .c_str());
  std::printf("%s\n",
              result_json(correct, attempted, failed, metrics, "").c_str());
  std::fflush(stdout);

  if (!opt.json_out.empty()) {
    std::FILE* out = std::fopen(opt.json_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      return 1;
    }
    const std::string extra = ", \"workload\": \"" + w.name +
                              "\", \"seed\": " + std::to_string(opt.seed) +
                              ", \"passes\": " + std::to_string(passes.size());
    std::fprintf(out, "%s\n",
                 result_json(correct, attempted, failed, metrics, extra)
                     .c_str());
    std::fclose(out);
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: pythia_e2e --workload W [--seed S] [--seconds N] "
                 "[--trace 0|1] [--smoke] [--expected FILE] "
                 "[--json-out FILE] [--spans-out FILE]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pythia_e2e: %s\n", e.what());
    return 2;
  }
}
