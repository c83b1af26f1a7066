#include "cluster/topology.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/json.hpp"

namespace cmc::cluster {

bool parseTopology(const std::string& text, Topology* out,
                   std::string* error) {
  Topology topo;
  std::unordered_set<std::string> names;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto fail = [&](const std::string& why) {
      *error = "topology line " + std::to_string(lineNo) + ": " + why;
      return false;
    };
    util::JsonValue doc;
    std::string why;
    if (!util::parseJson(line, &doc, &why)) return fail("not JSON: " + why);
    if (!doc.isObject()) return fail("not a JSON object");
    ShardSpec shard;
    if (!doc.opt("name", &shard.name) ||
        !doc.opt("socket", &shard.socketPath)) {
      return fail("'name' and 'socket' must be strings");
    }
    if (shard.name.empty()) return fail("missing shard 'name'");
    if (!names.insert(shard.name).second) {
      return fail("duplicate shard name '" + shard.name + "'");
    }
    std::uint64_t port = 0;
    const util::JsonField tcp = doc.get("tcp", &port);
    if (tcp == util::JsonField::WrongType ||
        (tcp == util::JsonField::Ok && (port == 0 || port > 65535))) {
      return fail("'tcp' must be in 1..65535");
    }
    const bool hasSocket = !shard.socketPath.empty();
    const bool hasTcp = tcp == util::JsonField::Ok;
    if (hasSocket == hasTcp) {
      return fail("shard '" + shard.name +
                  "' needs exactly one of 'socket' or 'tcp'");
    }
    if (hasTcp) shard.tcpPort = static_cast<int>(port);
    topo.shards.push_back(std::move(shard));
  }
  if (topo.shards.empty()) {
    *error = "topology has no shards";
    return false;
  }
  *out = std::move(topo);
  return true;
}

bool loadTopology(const std::string& path, Topology* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open topology file: " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!parseTopology(buf.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::uint64_t rendezvousScore(const std::string& shardName,
                              const std::string& key) {
  return StableHash128().update(shardName).sep().update(key).value64();
}

std::vector<std::size_t> rendezvousOrder(
    const std::vector<std::string>& shardNames, const std::string& key) {
  std::vector<std::size_t> order(shardNames.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::uint64_t> score(shardNames.size());
  for (std::size_t i = 0; i < shardNames.size(); ++i) {
    score[i] = rendezvousScore(shardNames[i], key);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return score[a] != score[b] ? score[a] > score[b] : a < b;
  });
  return order;
}

}  // namespace cmc::cluster
