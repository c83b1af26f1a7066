// The paper's §4.3 case study: AFS-2 with callbacks, updates, failures and
// transmission delay, verified compositionally for n clients.  The model
// is gen::afs2Model(n), the text `genmodel afs2 <n>` writes.
//
//   $ ./afs2_verification [numClients] [--cross-check]
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "afs/verify_afs2.hpp"
#include "gen/modelgen.hpp"
#include "util/string_util.hpp"

using namespace cmc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: afs2_verification [numClients >= 1] [--cross-check]\n");
  return 2;
}

/// The server module of gen::afs2Model(n): the text before client 1.
std::string serverModule(int numClients) {
  const std::string text =
      gen::afs2Model(static_cast<std::size_t>(numClients));
  const std::size_t begin = text.find("MODULE ");
  return text.substr(begin, text.find("\nMODULE ", begin) - begin);
}

}  // namespace

int main(int argc, char** argv) {
  int numClients = 2;
  bool crossCheck = false;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t n = 0;
    if (std::strcmp(argv[i], "--cross-check") == 0) {
      crossCheck = true;
    } else if (parseUint(argv[i], &n) && n >= 1 && n <= INT_MAX) {
      numClients = static_cast<int>(n);
    } else {
      return usage();
    }
  }

  std::cout << "== AFS-2 with " << numClients << " client(s) ==\n\n";
  std::cout << "generated server model:\n" << serverModule(numClients) << "\n";

  const afs::Afs2Report report = afs::verifyAfs2(numClients, crossCheck);
  std::cout << report.proof.render() << "\n";
  std::cout << "  (Afs1') safety, compositional: "
            << (report.safety ? "proved" : "FAILED") << "\n";
  if (crossCheck) {
    std::cout << "  (Afs1') direct global check:   "
              << (report.safetyCrossCheck ? "confirmed" : "FAILED") << "\n";
  }
  std::cout << "  per-component model checks:    " << report.componentChecks
            << " (linear in the number of clients)\n";
  return report.allOk() ? 0 : 1;
}
