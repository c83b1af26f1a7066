#include "afs/afs2.hpp"

#include <iterator>

#include "gen/modelgen.hpp"

namespace cmc::afs {

namespace {

std::string idx(const char* base, int i) {
  return std::string(base) + std::to_string(i);
}

}  // namespace

Afs2Components buildAfs2(symbolic::Context& ctx, int numClients,
                         bool reflexive) {
  if (numClients < 1) {
    throw ModelError("AFS-2 needs at least one client");
  }
  std::vector<smv::ElaboratedModule> modules = smv::elaborateProgram(
      ctx, gen::afs2Model(static_cast<std::size_t>(numClients)));
  if (reflexive) {
    for (smv::ElaboratedModule& mod : modules) symbolic::addReflexive(mod.sys);
  }
  Afs2Components out;
  out.numClients = numClients;
  out.server = std::move(modules.front());
  out.clients.assign(std::make_move_iterator(modules.begin() + 1),
                     std::make_move_iterator(modules.end()));
  return out;
}

ctl::FormulaPtr afs2Init(int numClients) {
  std::vector<ctl::FormulaPtr> parts;
  for (int i = 1; i <= numClients; ++i) {
    parts.push_back(ctl::mkOr(ctl::eq(idx("Client", i) + ".belief", "nofile"),
                              ctl::eq(idx("Client", i) + ".belief",
                                      "suspect")));
    parts.push_back(ctl::eq(idx("request", i), "null"));
    parts.push_back(ctl::eq(idx("Server.belief", i), "nocall"));
    parts.push_back(ctl::eq(idx("response", i), "null"));
  }
  return ctl::conj(parts);
}

ctl::FormulaPtr afs2InvariantFor(int clientIndex) {
  return ctl::mkAnd(
      afs2TargetFor(clientIndex),
      ctl::mkImplies(ctl::eq(idx("response", clientIndex), "val"),
                     ctl::eq(idx("Server.belief", clientIndex), "valid")));
}

ctl::FormulaPtr afs2Invariant(int numClients) {
  std::vector<ctl::FormulaPtr> parts;
  for (int i = 1; i <= numClients; ++i) {
    parts.push_back(afs2InvariantFor(i));
  }
  return ctl::conj(parts);
}

ctl::FormulaPtr afs2TargetFor(int clientIndex) {
  return ctl::mkImplies(
      ctl::eq(idx("Client", clientIndex) + ".belief", "valid"),
      ctl::mkOr(ctl::eq(idx("Server.belief", clientIndex), "valid"),
                ctl::mkNot(ctl::atom(idx("time", clientIndex)))));
}

ctl::FormulaPtr afs2Target(int numClients) {
  std::vector<ctl::FormulaPtr> parts;
  for (int i = 1; i <= numClients; ++i) {
    parts.push_back(afs2TargetFor(i));
  }
  return ctl::conj(parts);
}

ctl::Spec afs2SafetySpec(int numClients) {
  ctl::Restriction r;
  r.init = afs2Init(numClients);
  r.fairness = {ctl::mkTrue()};
  return ctl::Spec{"Afs2.Afs1", std::move(r),
                   ctl::AG(afs2Target(numClients))};
}

}  // namespace cmc::afs
