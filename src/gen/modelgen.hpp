// Parameterized SMV model generation (gen layer): scalable families of the
// paper's systems for benchmarking and scaling experiments.
//
//  - ringModel(n): a token ring of n stations.  Station i owns st<i> and
//    shares the token bits tok<i> (with its predecessor) and tok<i+1 mod n>
//    (with its successor).  Its spec, "in the critical section, station i
//    holds tok<i>" as p ⇒ AX p, holds on the station alone but not under
//    a free environment, which may clear tok<i> while station i is in its
//    critical section; the composed check decides it on the whole ring.
//  - afs2Model(n): the AFS-2 server of Figure 12 generalized to n clients
//    plus the n clients of Figure 13, mirroring models/afs2_composed.smv
//    (which is this family at n = 2, modulo formatting).  afs::buildAfs2
//    elaborates it for the §4.3 case study.  One deliberate correction to
//    the figures, justified by the prose: the shared variables a component
//    only reads are pinned with `next(v) := v` — the client's response<i>
//    and the server's request<i>.  Cli1 ("the client does not change its
//    belief to valid if the server's response is not val", §4.2.2/§4.3.3)
//    is false for a client that can scramble the response.
//
// Generated text is deterministic: goldens under models/gen/ are
// byte-compared against regeneration in tests.
#pragma once

#include <cstddef>
#include <string>

namespace cmc::gen {

/// Token ring with `n` stations (n >= 2).
std::string ringModel(std::size_t n);

/// AFS-2 server + `n` clients (n >= 1).
std::string afs2Model(std::size_t n);

}  // namespace cmc::gen
