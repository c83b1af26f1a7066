// The paper's AFS-1 SMV listings (Figures 5, 6, 8, 9), cleaned from the
// OCR'd technical report, plus composition-ready variants with qualified
// variable names (the §4.2 discussion uses Server.belief and
// Client.belief; the figures reuse `belief` because each component is
// checked in isolation).  The AFS-2 listings (Figures 12, 13, 14, 16),
// generalized to n clients, come from gen::afs2Model.
//
// Deliberate correction to the figures, justified by the paper's prose
// (the formal development in §4 is the source of truth; the listings are
// OCR-damaged): conjunctions of implications are parenthesized (SMV's
// precedence would otherwise parse `a -> AX a & b -> AX b` as a nested
// implication).
#pragma once

#include <string>

namespace cmc::afs {

// ---- AFS-1 (Figures 5-10) ---------------------------------------------------

/// Figure 5 + Figure 6: the server model with specs Srv1-Srv5.
const std::string& afs1ServerSmv();
/// Figure 8 + Figure 9: the client model with specs Cli1-Cli5.
const std::string& afs1ClientSmv();

/// Composition-ready AFS-1 server: `belief` renamed Server.belief,
/// shared `r`, plus the initial condition of (Afs1).
const std::string& afs1ServerQualifiedSmv();
/// Composition-ready AFS-1 client: `belief` renamed Client.belief.
const std::string& afs1ClientQualifiedSmv();

}  // namespace cmc::afs
