// genmodel: emit parameterized SMV model families (src/gen/modelgen.hpp)
// to stdout or a file.  The goldens under models/gen/ are produced by this
// tool and byte-compared against regeneration in the test suite.
//
//   genmodel ring 8                 # token ring, 8 stations, to stdout
//   genmodel afs2 3 -o afs2_3.smv   # AFS-2 server + 3 clients, to a file
//
// Exit status: 0 written, 1 generator error or failed write, 2 usage (the
// count must be plain decimal digits).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "gen/modelgen.hpp"
#include "util/string_util.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: genmodel <family> <n> [-o <file>]\n"
               "families:\n"
               "  ring <n>   token ring with n stations (n >= 2)\n"
               "  afs2 <n>   AFS-2 server + n clients (n >= 1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string family;
  std::string out;
  const char* count = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (i + 1 >= argc) return usage();
      out = argv[++i];
    } else if (family.empty()) {
      family = arg;
    } else if (count == nullptr) {
      count = argv[i];
    } else {
      return usage();
    }
  }
  // Digits only: no sign, no space, no overflow.
  std::uint64_t n = 0;
  if (family.empty() || count == nullptr || !cmc::parseUint(count, &n)) {
    return usage();
  }

  std::string text;
  try {
    if (family == "ring") {
      text = cmc::gen::ringModel(n);
    } else if (family == "afs2") {
      text = cmc::gen::afs2Model(n);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "genmodel: %s\n", e.what());
    return 1;
  }

  std::ofstream file;
  if (!out.empty()) file.open(out, std::ios::binary);
  std::ostream& sink = out.empty() ? std::cout : file;
  sink << text << std::flush;
  if (file.is_open()) file.close();
  if (!sink) {
    std::fprintf(stderr, "genmodel: cannot write %s\n",
                 out.empty() ? "stdout" : out.c_str());
    return 1;
  }
  return 0;
}
