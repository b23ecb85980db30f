#include "chase/row_index.h"

#include <algorithm>
#include <vector>

#include "base/hash.h"
#include "chase/instance.h"
#include "logic/schema.h"
#include "logic/term.h"

namespace chase {

size_t RowIndex::Column::Lookup(Term term) const {
  if (slots_.empty()) return entries_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t s = Mix64(term) & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) return entries_.size();
    if (entries_[slot - 1].term == term) return slot - 1;
  }
}

void RowIndex::Column::Rebuild() {
  size_t runs = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    runs += i == 0 || entries_[i].term != entries_[i - 1].term;
  }
  size_t size = 2;
  while (size < 2 * runs) size *= 2;
  slots_.assign(size, 0);
  const size_t mask = size - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0 && entries_[i].term == entries_[i - 1].term) continue;
    size_t s = Mix64(entries_[i].term) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(i + 1);
  }
}

void RowIndex::AddColumn(PredId pred, uint32_t col) {
  if (pred >= columns_.size()) columns_.resize(pred + 1);
  std::vector<Column>& columns = columns_[pred];
  if (col >= columns.size()) columns.resize(col + 1);
  if (!columns[col].indexed_) ++num_columns_;
  columns[col].indexed_ = true;
}

void RowIndex::Extend(const Instance& instance) {
  for (PredId pred = 0; pred < columns_.size(); ++pred) {
    const size_t rows = instance.NumRows(pred);
    for (uint32_t col = 0; col < columns_[pred].size(); ++col) {
      Column& column = columns_[pred][col];
      if (!column.indexed_ || column.covered_ >= rows) continue;
      // The new rows all follow the old ones, so sorting just them and
      // merging keeps every key's run ascending.
      std::vector<Entry>& entries = column.entries_;
      const size_t old_size = entries.size();
      for (size_t row = column.covered_; row < rows; ++row) {
        entries.push_back(
            {instance.Row(pred, row)[col], static_cast<uint32_t>(row)});
      }
      std::sort(entries.begin() + old_size, entries.end());
      std::inplace_merge(entries.begin(), entries.begin() + old_size,
                         entries.end());
      column.Rebuild();
      column.covered_ = rows;
    }
  }
}

const RowIndex::Column* RowIndex::Find(PredId pred, uint32_t col,
                                       size_t end) const {
  if (pred >= columns_.size() || col >= columns_[pred].size()) return nullptr;
  const Column& column = columns_[pred][col];
  return column.indexed_ && end <= column.covered_ ? &column : nullptr;
}

}  // namespace chase
