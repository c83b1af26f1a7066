#include "afs/smv_sources.hpp"

namespace cmc::afs {

// ---- AFS-1 server (Figures 5 and 6) -----------------------------------------

const std::string& afs1ServerSmv() {
  static const std::string text = R"(
-- SMV implementation of the server in the AFS-1 (Figure 5)
MODULE main
VAR
  belief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(belief) :=
    case
      (belief = none) & (r = fetch) : valid;
      (belief = invalid) & (r = fetch) : valid;
      (belief = none) & (r = validate) & validFile : valid;
      (belief = none) & (r = validate) & !validFile : invalid;
      1 : belief;
    esac;
  next(r) :=
    case
      (belief = none) & (r = fetch) : val;
      (belief = invalid) & (r = fetch) : val;
      (belief = none) & (r = validate) & validFile : val;
      (belief = none) & (r = validate) & !validFile : inval;
      (belief = valid) & (r = fetch) : val;
      1 : r;
    esac;

-- Specification of the server (Figure 6)
-- Srv1
SPEC (belief = valid) -> AX (belief = valid)
-- Srv2
SPEC (r = val -> belief = valid) -> AX (r = val -> belief = valid)
-- Srv3
SPEC (r = null -> AX r = null) & (r = val -> AX r = val) &
     (r = inval -> AX r = inval)
-- Srv4
SPEC (r = fetch -> AX (r = fetch | r = val)) &
     ((r = validate & belief = none) ->
        AX ((belief = none & r = validate) |
            (belief = valid & r = val) |
            (belief = invalid & r = inval)))
-- Srv5 (premise for Rule 4; the guarantees property itself cannot be
-- model checked, cf. section 4.2.4)
SPEC (r = fetch -> EX (r = val)) &
     ((r = validate & belief = none) ->
        EX ((belief = valid & r = val) | (belief = invalid & r = inval)))
)";
  return text;
}

// ---- AFS-1 client (Figures 8 and 9) -----------------------------------------

const std::string& afs1ClientSmv() {
  static const std::string text = R"(
-- SMV implementation of the client in the AFS-1 (Figure 8)
MODULE main
VAR
  r : {null, fetch, validate, val, inval};
  belief : {valid, suspect, nofile};
ASSIGN
  next(belief) :=
    case
      (belief = nofile) & (r = val) : valid;
      (belief = suspect) & (r = val) : valid;
      (belief = suspect) & (r = inval) : nofile;
      1 : belief;
    esac;
  next(r) :=
    case
      (belief = nofile) & (r = null) : fetch;
      (belief = suspect) & (r = null) : validate;
      (belief = suspect) & (r = inval) : null;
      1 : r;
    esac;

-- Specification of the client (Figure 9)
-- Cli1
SPEC (belief != valid & r != val) -> AX (belief != valid & r != val)
-- Cli2
SPEC r = fetch -> AX r = fetch
SPEC r = validate -> AX r = validate
-- Cli3
SPEC ((belief = nofile & r = null) ->
        AX ((belief = nofile & r = null) | (belief = nofile & r = fetch))) &
     ((belief = nofile & r = fetch) ->
        AX ((belief = nofile & r = fetch) | (belief = nofile & r = val))) &
     ((belief = nofile & r = val) ->
        AX ((belief = nofile & r = val) | (belief = valid & r = val))) &
     ((belief = suspect & r = null) ->
        AX ((belief = suspect & r = null) | (belief = suspect & r = validate))) &
     ((belief = suspect & r = val) ->
        AX ((belief = suspect & r = val) | (belief = valid & r = val))) &
     ((belief = suspect & r = inval) ->
        AX ((belief = suspect & r = inval) | (belief = nofile & r = null)))
-- Cli4 (premise)
SPEC ((belief = nofile & r = null) -> EX (belief = nofile & r = fetch)) &
     ((belief = nofile & r = val) -> EX (belief = valid & r = val))
-- Cli5 (premise)
SPEC ((belief = suspect & r = null) -> EX (belief = suspect & r = validate)) &
     ((belief = suspect & r = val) -> EX (belief = valid & r = val)) &
     ((belief = suspect & r = inval) -> EX (belief = nofile & r = null))
)";
  return text;
}

// ---- AFS-1 composition-ready variants ----------------------------------------

const std::string& afs1ServerQualifiedSmv() {
  static const std::string text = R"(
-- AFS-1 server with qualified names for composition (section 4.2.3)
MODULE afs1server
VAR
  Server.belief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(Server.belief) :=
    case
      (Server.belief = none) & (r = fetch) : valid;
      (Server.belief = invalid) & (r = fetch) : valid;
      (Server.belief = none) & (r = validate) & validFile : valid;
      (Server.belief = none) & (r = validate) & !validFile : invalid;
      1 : Server.belief;
    esac;
  next(r) :=
    case
      (Server.belief = none) & (r = fetch) : val;
      (Server.belief = invalid) & (r = fetch) : val;
      (Server.belief = none) & (r = validate) & validFile : val;
      (Server.belief = none) & (r = validate) & !validFile : inval;
      (Server.belief = valid) & (r = fetch) : val;
      1 : r;
    esac;
INIT Server.belief = none
)";
  return text;
}

const std::string& afs1ClientQualifiedSmv() {
  static const std::string text = R"(
-- AFS-1 client with qualified names for composition (section 4.2.3)
MODULE afs1client
VAR
  r : {null, fetch, validate, val, inval};
  Client.belief : {valid, suspect, nofile};
ASSIGN
  next(Client.belief) :=
    case
      (Client.belief = nofile) & (r = val) : valid;
      (Client.belief = suspect) & (r = val) : valid;
      (Client.belief = suspect) & (r = inval) : nofile;
      1 : Client.belief;
    esac;
  next(r) :=
    case
      (Client.belief = nofile) & (r = null) : fetch;
      (Client.belief = suspect) & (r = null) : validate;
      (Client.belief = suspect) & (r = inval) : null;
      1 : r;
    esac;
INIT (Client.belief = nofile | Client.belief = suspect) & r = null
)";
  return text;
}

}  // namespace cmc::afs
