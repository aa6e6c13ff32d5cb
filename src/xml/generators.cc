#include "xml/generators.h"

#include <deque>
#include <string>
#include <vector>

namespace boxes::xml {

Document MakeTwoLevelDocument(uint64_t children) {
  Document doc;
  const ElementId root = doc.AddRoot("root");
  for (uint64_t i = 0; i < children; ++i) {
    doc.AddChild(root, "item");
  }
  return doc;
}

Document MakeRandomDocument(uint64_t elements, uint64_t max_depth,
                            uint64_t seed) {
  BOXES_CHECK(elements >= 1);
  BOXES_CHECK(max_depth >= 1);
  Random rng(seed);
  Document doc;
  doc.AddRoot("e0");
  std::vector<ElementId> eligible;  // elements with depth < max_depth
  std::vector<uint64_t> depth(1, 1);
  if (max_depth > 1) {
    eligible.push_back(0);
  }
  for (uint64_t i = 1; i < elements; ++i) {
    BOXES_CHECK(!eligible.empty());
    const size_t pick = rng.Uniform(eligible.size());
    const ElementId parent = eligible[pick];
    const ElementId child =
        doc.AddChild(parent, std::string("e").append(std::to_string(i)));
    depth.push_back(depth[parent] + 1);
    if (depth[child] < max_depth) {
      eligible.push_back(child);
    }
  }
  return doc;
}

Document MakeBalancedDocument(uint64_t elements, uint64_t fanout) {
  BOXES_CHECK(elements >= 1);
  BOXES_CHECK(fanout >= 1);
  Document doc;
  doc.AddRoot("n");
  std::deque<ElementId> frontier{0};
  uint64_t created = 1;
  while (created < elements) {
    BOXES_CHECK(!frontier.empty());
    const ElementId parent = frontier.front();
    frontier.pop_front();
    for (uint64_t i = 0; i < fanout && created < elements; ++i) {
      frontier.push_back(doc.AddChild(parent, "n"));
      ++created;
    }
  }
  return doc;
}

}  // namespace boxes::xml
