#include "acyclicity/mfa.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/status.h"
#include "chase/body_partition.h"
#include "chase/instance.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace acyclicity {

namespace {

// Tag of an invention site: (rule index, existential variable). Dense ids.
struct TagTable {
  // first_tag[r] = dense tag id of rule r's first existential variable.
  std::vector<uint32_t> first_tag;
  uint32_t num_tags = 0;

  explicit TagTable(const std::vector<Tgd>& tgds) {
    first_tag.resize(tgds.size() + 1);
    uint32_t next = 0;
    for (size_t r = 0; r < tgds.size(); ++r) {
      first_tag[r] = next;
      next += tgds[r].num_existential();
    }
    first_tag[tgds.size()] = next;
    num_tags = next;
  }

  uint32_t TagOf(uint32_t rule, const Tgd& tgd, VarId exvar) const {
    return first_tag[rule] + (exvar - tgd.num_universal());
  }
};

// Sorted, deduplicated tag sets. Ancestries grow slowly (bounded by
// num_tags), so sorted vectors beat bitsets for typical rule counts.
using TagSet = std::vector<uint32_t>;

TagSet UnionTagSets(const TagSet& a, const TagSet& b) {
  TagSet result;
  result.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(result));
  return result;
}

bool ContainsTag(const TagSet& set, uint32_t tag) {
  return std::binary_search(set.begin(), set.end(), tag);
}

}  // namespace

StatusOr<bool> IsModelFaithfulAcyclic(const Schema& schema,
                                      const std::vector<Tgd>& tgds,
                                      const MfaOptions& options,
                                      MfaStats* stats) {
  for (const Tgd& tgd : tgds) {
    for (const RuleAtom& atom : tgd.body()) {
      if (atom.pred >= schema.NumPredicates()) {
        return InvalidArgumentError("TGD uses a predicate not in the schema");
      }
    }
  }
  const TagTable tags(tgds);

  // The critical instance: one all-star fact per predicate. The star is
  // constant 0; only nulls carry provenance so its id never matters.
  Instance instance(&schema);
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    instance.AddAtom(GroundAtom(
        pred, std::vector<Term>(schema.Arity(pred), MakeConstant(0))));
  }

  // Provenance of every null: its own invention tag plus the ancestry of the
  // nulls its frontier binding contained (tag included).
  std::vector<TagSet> null_ancestry;

  // Semi-oblivious firing memory: one application per (rule, frontier
  // binding).
  std::set<std::pair<uint32_t, std::vector<Term>>> fired;

  HomEnumerator matcher;
  bool cyclic = false;
  bool changed = true;
  while (changed && !cyclic) {
    changed = false;
    for (uint32_t r = 0; r < tgds.size() && !cyclic; ++r) {
      const Tgd& tgd = tgds[r];
      // The windows are fixed at Reset, so triggers fire as they are found:
      // atoms they add are first matched on the next pass.
      matcher.Reset(tgd.body(), &instance, FullRanges(tgd.body(), instance),
                    std::vector<Term>(tgd.num_vars(), kUnboundTerm));
      while (matcher.Next()) {
        const std::vector<Term>& full = matcher.hom();
        std::vector<Term> frontier_binding;
        frontier_binding.reserve(tgd.frontier().size());
        for (VarId x : tgd.frontier()) frontier_binding.push_back(full[x]);
        if (!fired.emplace(r, std::move(frontier_binding)).second) continue;
        if (stats != nullptr) ++stats->triggers_fired;
        // Ancestry of the invented nulls: union over the frontier image.
        TagSet ancestry;
        for (VarId x : tgd.frontier()) {
          if (IsNull(full[x])) {
            ancestry = UnionTagSets(ancestry, null_ancestry[NullId(full[x])]);
          }
        }
        // Extend the assignment with fresh nulls for the existentials.
        std::vector<Term> extended = full;
        for (VarId z = tgd.num_universal(); z < tgd.num_vars(); ++z) {
          const uint32_t tag = tags.TagOf(r, tgd, z);
          if (ContainsTag(ancestry, tag)) {
            cyclic = true;  // a (σ, z)-null descends from a (σ, z)-null
            break;
          }
          const uint64_t null_id = instance.NewNullId();
          TagSet with_self = UnionTagSets(ancestry, {tag});
          null_ancestry.push_back(std::move(with_self));
          if (stats != nullptr) ++stats->nulls_created;
          extended[z] = MakeNull(null_id);
        }
        if (cyclic) break;
        for (const RuleAtom& head_atom : tgd.head()) {
          std::vector<Term> args;
          args.reserve(head_atom.args.size());
          for (VarId v : head_atom.args) args.push_back(extended[v]);
          if (instance.AddAtom(GroundAtom(head_atom.pred, std::move(args)))) {
            changed = true;
          }
        }
        if (instance.NumAtoms() > options.max_atoms) {
          return ResourceExhaustedError(
              "MFA critical chase exceeded max_atoms");
        }
      }
    }
  }
  if (stats != nullptr) stats->atoms = instance.NumAtoms();
  return !cyclic;
}

}  // namespace acyclicity
}  // namespace chase
