#include "core/change_set.h"

#include <sstream>
#include <stdexcept>

namespace wrs {

ChangeSet ChangeSet::initial(const WeightMap& initial_weights) {
  ChangeSet cs;
  for (const auto& [server, weight] : initial_weights.entries()) {
    cs.add(Change(server, kInitialChangeCounter, server, weight));
  }
  return cs;
}

bool ChangeSet::add(const Change& change) {
  return add(change.id, change.delta);
}

bool ChangeSet::add(const ChangeId& id, const Weight& delta) {
  // try_emplace builds no node when the id is already present.
  auto [it, inserted] = map_.try_emplace(id, delta);
  if (!inserted && !(it->second == delta)) {
    Change c;
    c.id = id;
    c.delta = delta;
    throw std::logic_error("ChangeSet: conflicting deltas for change id " +
                           c.str() + " vs existing delta " +
                           it->second.str());
  }
  return inserted;
}

std::optional<Change> ChangeSet::find(const ChangeId& id) const {
  auto it = map_.find(id);
  if (it == map_.end()) return std::nullopt;
  Change c;
  c.id = id;
  c.delta = it->second;
  return c;
}

std::size_t ChangeSet::join(const ChangeSet& other) {
  std::size_t added = 0;
  for (const auto& [id, delta] : other.map_) {
    if (add(id, delta)) ++added;
  }
  return added;
}

std::vector<Change> ChangeSet::changes_for(ProcessId target) const {
  std::vector<Change> out;
  for (const auto& [id, delta] : map_) {
    if (id.target == target) {
      Change c;
      c.id = id;
      c.delta = delta;
      out.push_back(c);
    }
  }
  return out;
}

ChangeSet ChangeSet::subset_for(ProcessId target) const {
  ChangeSet out;
  for (const auto& [id, delta] : map_) {
    if (id.target == target) {
      Change c;
      c.id = id;
      c.delta = delta;
      out.add(c);
    }
  }
  return out;
}

std::size_t ChangeSet::count_pair(ProcessId issuer,
                                  std::uint64_t counter) const {
  std::size_t count = 0;
  for (const auto& [id, _] : map_) {
    if (id.issuer == issuer && id.counter == counter) ++count;
  }
  return count;
}

std::vector<Change> ChangeSet::missing_from(const ChangeSet& other) const {
  std::vector<Change> out;
  for (const auto& [id, delta] : other.map_) {
    if (map_.count(id) == 0) {
      Change c;
      c.id = id;
      c.delta = delta;
      out.push_back(c);
    }
  }
  return out;
}

Weight ChangeSet::weight_of(ProcessId target) const {
  Weight sum(0);
  for (const auto& [id, delta] : map_) {
    if (id.target == target) sum += delta;
  }
  return sum;
}

WeightMap ChangeSet::to_weight_map(
    const std::vector<ProcessId>& servers) const {
  WeightMap wm;
  for (ProcessId s : servers) wm.set(s, weight_of(s));
  return wm;
}

Weight ChangeSet::total() const {
  Weight sum(0);
  for (const auto& [_, delta] : map_) sum += delta;
  return sum;
}

std::vector<Change> ChangeSet::all() const {
  std::vector<Change> out;
  out.reserve(map_.size());
  for (const auto& [id, delta] : map_) {
    Change c;
    c.id = id;
    c.delta = delta;
    out.push_back(c);
  }
  return out;
}

bool ChangeSet::subset_of(const ChangeSet& other) const {
  for (const auto& [id, delta] : map_) {
    auto it = other.map_.find(id);
    if (it == other.map_.end() || !(it->second == delta)) return false;
  }
  return true;
}

std::string ChangeSet::str() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [id, delta] : map_) {
    if (!first) os << ", ";
    first = false;
    Change c;
    c.id = id;
    c.delta = delta;
    os << c.str();
  }
  os << "}";
  return os.str();
}

}  // namespace wrs
