// AFS-2 case study (paper §4.3): one server and n clients with callbacks,
// updates, failures, and transmission delay modeled by time_i.
#pragma once

#include "comp/property.hpp"
#include "smv/elaborate.hpp"

namespace cmc::afs {

struct Afs2Components {
  smv::ElaboratedModule server;
  std::vector<smv::ElaboratedModule> clients;
  int numClients = 0;
};

/// Elaborate gen::afs2Model(numClients) — the server, then clients 1..n —
/// into `ctx`.  The modules' specs carry the generator's INIT in their
/// restriction; the figures' all-states checks use
/// ctl::Restriction::trivial() instead.
Afs2Components buildAfs2(symbolic::Context& ctx, int numClients,
                         bool reflexive = true);

/// I  =  ⋀ᵢ (Clientᵢ.belief ∈ {nofile, suspect} ∧ requestᵢ = null ∧
///           Server.beliefᵢ = nocall ∧ responseᵢ = null)      (§4.3.1).
ctl::FormulaPtr afs2Init(int numClients);

/// Invᵢ for one client (§4.3.1):
///   (Clientᵢ.belief = valid ⇒ (Server.beliefᵢ = valid ∨ ¬timeᵢ)) ∧
///   (responseᵢ = val ⇒ Server.beliefᵢ = valid).
ctl::FormulaPtr afs2InvariantFor(int clientIndex);

/// Inv = ⋀ᵢ Invᵢ.
ctl::FormulaPtr afs2Invariant(int numClients);

/// The body of (Afs1) for AFS-2, client i:
///   Clientᵢ.belief = valid ⇒ (Server.beliefᵢ = valid ∨ ¬timeᵢ).
ctl::FormulaPtr afs2TargetFor(int clientIndex);
ctl::FormulaPtr afs2Target(int numClients);

/// (Afs1) for AFS-2:  ⊨_(I,{true}) AG ⋀ᵢ targetᵢ.
ctl::Spec afs2SafetySpec(int numClients);

}  // namespace cmc::afs
