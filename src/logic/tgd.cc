#include "logic/tgd.h"

#include "base/status.h"
#include "logic/atom.h"

#include <algorithm>

namespace chase {

StatusOr<Tgd> Tgd::Create(std::vector<RuleAtom> body,
                          std::vector<RuleAtom> head) {
  if (body.empty()) return InvalidArgumentError("TGD body must be non-empty");
  if (head.empty()) return InvalidArgumentError("TGD head must be non-empty");
  for (const RuleAtom& atom : body) {
    if (atom.args.empty()) {
      return InvalidArgumentError("TGD atoms must have positive arity");
    }
  }
  for (const RuleAtom& atom : head) {
    if (atom.args.empty()) {
      return InvalidArgumentError("TGD atoms must have positive arity");
    }
  }

  // Renumber: body variables first (first-occurrence order), then head-only
  // variables (first-occurrence order). A variable's new id is its index in
  // `order`; rules have few variables, so a linear search beats hashing.
  std::vector<VarId> order;
  size_t num_args = 0;
  for (const RuleAtom& atom : body) num_args += atom.args.size();
  for (const RuleAtom& atom : head) num_args += atom.args.size();
  order.reserve(num_args);
  auto visit = [&order](std::vector<RuleAtom>& atoms) {
    for (RuleAtom& atom : atoms) {
      for (VarId& var : atom.args) {
        auto it = std::find(order.begin(), order.end(), var);
        if (it == order.end()) {
          order.push_back(var);
          it = order.end() - 1;
        }
        var = static_cast<VarId>(it - order.begin());
      }
    }
  };
  visit(body);
  const auto num_universal = static_cast<uint32_t>(order.size());
  visit(head);
  const auto num_vars = static_cast<uint32_t>(order.size());

  Tgd tgd;
  tgd.body_ = std::move(body);
  tgd.head_ = std::move(head);
  tgd.num_vars_ = num_vars;
  tgd.num_universal_ = num_universal;
  tgd.frontier_.reserve(num_universal);
  for (const RuleAtom& atom : tgd.head_) {
    for (VarId var : atom.args) {
      if (var < num_universal) tgd.frontier_.push_back(var);
    }
  }
  std::sort(tgd.frontier_.begin(), tgd.frontier_.end());
  tgd.frontier_.erase(
      std::unique(tgd.frontier_.begin(), tgd.frontier_.end()),
      tgd.frontier_.end());
  return tgd;
}

bool AllLinear(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(),
                     [](const Tgd& tgd) { return tgd.IsLinear(); });
}

bool AllSimpleLinear(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(),
                     [](const Tgd& tgd) { return tgd.IsSimpleLinear(); });
}

bool AllHaveNonEmptyFrontier(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(), [](const Tgd& tgd) {
    return tgd.HasNonEmptyFrontier();
  });
}

}  // namespace chase
