// Command-line flags of the bench mains. Every bench takes --quick (the
// reduced sweep), and each that writes a report takes --json [PATH]; a few
// add a flag of their own. Nothing is written without --json, so running a
// bench from the repository root cannot overwrite a committed BENCH_*.json.
// Any other argument prints a usage line and exits with status 2: a typo
// such as --quik must not silently run the full sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#include "core/json.h"

namespace nectar::bench {

struct Flag {
  const char* name;
  // Non-null: the flag takes an optional PATH (the next argument, unless it
  // starts with "--"), and this is its default.
  const char* path = nullptr;
  bool on = false;
};

inline void parse_flags(int argc, char** argv,
                        std::initializer_list<Flag*> flags) {
  for (int i = 1; i < argc; ++i) {
    Flag* match = nullptr;
    for (Flag* f : flags) {
      if (std::strcmp(argv[i], f->name) == 0) match = f;
    }
    if (match == nullptr) {
      std::string usage = std::string("usage: ") + argv[0];
      for (const Flag* f : flags) {
        usage += std::string(" [") + f->name + (f->path != nullptr ? " [PATH]]" : "]");
      }
      std::fprintf(stderr, "unknown flag %s\n%s\n", argv[i], usage.c_str());
      std::exit(2);
    }
    match->on = true;
    if (match->path != nullptr && i + 1 < argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0) {
      match->path = argv[++i];
    }
  }
}

// Write `doc` to json.path if --json was given. Returns false, after saying
// so on stderr, when the file cannot be written.
inline bool write_json(const Flag& json, const core::Json& doc) {
  if (!json.on) return true;
  if (!core::write_json_file(json.path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", json.path);
    return false;
  }
  std::printf("wrote %s\n", json.path);
  return true;
}

}  // namespace nectar::bench
