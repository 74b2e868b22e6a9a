// Tiny shared flag parser for the bench binaries.
//
//   --threads N       worker threads for sweep fan-out (0 = all hardware cores)
//   --smoke           reduced problem size for CI smoke runs
//   --out FILE        machine-readable results (JSON) destination (legacy)
//   --json-out FILE   same destination, shared across every bench; takes
//                     precedence over --out so CI jobs can redirect all
//                     artifacts without colliding on fixed in-tree names
//   --help            print the usage and exit 0
//
// Parsing is strict and happens before any work: an unknown flag, or a flag
// missing its value, prints the usage to stderr and exits 2, so a typo never
// runs a sweep or overwrites a results file.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "experiments/crash_handler.hpp"

namespace pythia::benchcli {

/// Walks argv strictly (see file header). `usage` lists the flags, printed
/// after "usage: <program> ".
class FlagReader {
 public:
  FlagReader(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Advances to the next flag; false once argv is used up. Exits 0 with
  /// the usage on --help.
  bool next() {
    if (++i_ >= argc_) return false;
    if (is("--help") || is("-h")) {
      print_usage(stdout);
      std::exit(0);
    }
    return true;
  }
  [[nodiscard]] bool is(const char* flag) const {
    return std::strcmp(argv_[i_], flag) == 0;
  }
  /// The current flag's value; exits 2 if argv ends first.
  const char* value() {
    if (i_ + 1 >= argc_) fail(std::string("missing value for ") + argv_[i_]);
    return argv_[++i_];
  }
  /// Rejects the current flag: exits 2.
  [[noreturn]] void reject() {
    fail(std::string("unknown flag ") + argv_[i_]);
  }
  /// Prints `why` and the usage to stderr and exits 2.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n", argv_[0], why.c_str());
    print_usage(stderr);
    std::exit(2);
  }

 private:
  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s %s", argv_[0], usage_);
  }

  int argc_;
  char** argv_;
  const char* usage_;
  int i_ = 0;
};

struct Args {
  std::size_t threads = 0;  // 0 = one worker per hardware core
  bool smoke = false;
  std::string out;       // --out (legacy per-bench flag)
  std::string json_out;  // --json-out (shared artifact-redirect flag)

  /// The JSON destination to use: --json-out wins, then --out, then the
  /// bench's default filename.
  [[nodiscard]] std::string json_path(const std::string& fallback) const {
    if (!json_out.empty()) return json_out;
    if (!out.empty()) return out;
    return fallback;
  }
};

/// Takes the current flag into `args` if it is --smoke, --out or
/// --json-out; false if it is none of them.
inline bool take_shared(FlagReader& flags, Args& args) {
  if (flags.is("--smoke")) {
    args.smoke = true;
  } else if (flags.is("--out")) {
    args.out = flags.value();
  } else if (flags.is("--json-out")) {
    args.json_out = flags.value();
  } else {
    return false;
  }
  return true;
}

inline Args parse(int argc, char** argv) {
  FlagReader flags(argc, argv,
                   "[--smoke] [--threads N] [--out FILE] [--json-out FILE]\n");
  Args args;
  while (flags.next()) {
    if (take_shared(flags, args)) continue;
    if (!flags.is("--threads")) flags.reject();
    const char* n = flags.value();
    char* end = nullptr;
    args.threads = static_cast<std::size_t>(std::strtoul(n, &end, 10));
    if (*n == '\0' || *end != '\0') {
      flags.fail(std::string("--threads takes a count, not ") + n);
    }
  }
  // Long sweeps should die loudly: on a crash/SIGTERM the handler flushes
  // logs and prints the active run's (point, arm, seed) and sim position.
  exp::install_crash_handler();
  return args;
}

}  // namespace pythia::benchcli
