// Tests for the parameterized model generator (gen layer): the committed
// goldens under models/gen/ must be byte-identical to regeneration (so a
// generator change cannot silently drift away from what is checked in),
// and every generated model must elaborate and verify component-wise.  The
// hand-written copies under models/ are pinned to the texts they copy.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "afs/smv_sources.hpp"
#include "gen/modelgen.hpp"
#include "ring/token_ring.hpp"
#include "service/scheduler.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/encode.hpp"

namespace cmc::gen {
namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GenGoldens, RegenerationIsByteIdentical) {
  const fs::path dir = fs::path(CMC_MODELS_DIR) / "gen";
  for (const std::size_t n : {3u, 8u, 16u}) {
    EXPECT_EQ(readFile(dir / ("ring_" + std::to_string(n) + ".smv")),
              ringModel(n));
    EXPECT_EQ(readFile(dir / ("afs2_" + std::to_string(n) + ".smv")),
              afs2Model(n));
  }
}

TEST(ModelCopies, MatchTheTextsTheyCopy) {
  const fs::path dir(CMC_MODELS_DIR);
  EXPECT_EQ(readFile(dir / "afs1_server.smv"), afs::afs1ServerSmv());
  EXPECT_EQ(readFile(dir / "afs1_client.smv"), afs::afs1ClientSmv());
  std::string ring;  // the stations, each followed by a blank line
  for (int i = 0; i < 3; ++i) ring += ring::stationSmv(i, 3) + "\n";
  EXPECT_EQ(readFile(dir / "token_ring_3.smv"), ring);
}

TEST(ModelCopies, Afs2CopiesDenoteTheGeneratedServerAndClient) {
  // afs2_server_2clients.smv and afs2_client1.smv are the AFS-2 server and
  // client 1 for two clients, written before afs2Model.  In one Context
  // they must have the alphabet, transition BDD and spec formulas of its
  // modules (which add an INIT the copies lack).
  const fs::path dir(CMC_MODELS_DIR);
  symbolic::Context ctx;
  const smv::ElaboratedModule server =
      smv::elaborateText(ctx, readFile(dir / "afs2_server_2clients.smv"));
  const smv::ElaboratedModule client1 =
      smv::elaborateText(ctx, readFile(dir / "afs2_client1.smv"));
  const std::vector<smv::ElaboratedModule> generated =
      smv::elaborateProgram(ctx, afs2Model(2));
  ASSERT_EQ(generated.size(), 3u);
  const std::pair<const smv::ElaboratedModule*, const smv::ElaboratedModule*>
      pairs[] = {{&server, &generated[0]}, {&client1, &generated[1]}};
  for (const auto& [copy, mod] : pairs) {
    SCOPED_TRACE(copy->sys.name);
    EXPECT_EQ(copy->sys.vars, mod->sys.vars);
    EXPECT_TRUE(copy->sys.transBdd() == mod->sys.transBdd());
    ASSERT_EQ(copy->specs.size(), mod->specs.size());
    for (std::size_t i = 0; i < copy->specs.size(); ++i) {
      EXPECT_EQ(ctl::toString(copy->specs[i].f),
                ctl::toString(mod->specs[i].f));
    }
  }
}

TEST(GenModels, RejectDegenerateSizes) {
  EXPECT_THROW(ringModel(1), Error);
  EXPECT_THROW(afs2Model(0), Error);
}

TEST(GenModels, GeneratedFamiliesElaborateAndHoldComponentWise) {
  // Component obligations only (no --compose): every station/client/server
  // satisfies its own spec under the free environment, at every size.
  for (const std::size_t n : {2u, 3u, 5u}) {
    for (const std::string& text : {ringModel(n), afs2Model(n)}) {
      service::VerificationService svc(service::ServiceOptions{});
      service::VerificationJob job;
      job.name = "gen";
      job.smvText = text;
      const service::JobReport report = svc.run(job);
      EXPECT_EQ(report.verdict, service::Verdict::Holds) << "n=" << n;
      EXPECT_FALSE(report.obligations.empty());
    }
  }
}

TEST(GenModels, RingMatchesTheHandWrittenStructure) {
  const std::string text = ringModel(3);
  symbolic::Context ctx(1 << 16);
  const std::vector<smv::ElaboratedModule> mods =
      smv::elaborateProgram(ctx, text);
  ASSERT_EQ(mods.size(), 3u);
  for (const smv::ElaboratedModule& mod : mods) {
    EXPECT_EQ(mod.specs.size(), 1u);
  }
}

}  // namespace
}  // namespace cmc::gen
