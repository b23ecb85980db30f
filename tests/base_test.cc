#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <vector>

#include "base/file.h"
#include "base/flat_set.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/table_printer.h"
#include "base/timer.h"
#include "logic/shape.h"
#include "obs/metrics.h"

namespace chase {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad rule");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad rule");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad rule");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << NotFoundError("missing");
  EXPECT_EQ(os.str(), "NOT_FOUND: missing");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

StatusOr<int> FailingHelper() { return OutOfRangeError("limit"); }
Status UsesAssignOrReturn() {
  CHASE_ASSIGN_OR_RETURN(int value, FailingHelper());
  (void)value;
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(UsesAssignOrReturn().code(), StatusCode::kOutOfRange);
}

// Lengths 0-40 cover every tail length (0-7 bytes after the words) in
// front of zero, one and more 32-byte blocks and partial word runs.
TEST(Checksum64Test, EverySingleByteChangeChangesTheChecksum) {
  for (size_t len = 0; len <= 40; ++len) {
    std::vector<uint8_t> bytes(len);
    for (size_t i = 0; i < len; ++i) bytes[i] = static_cast<uint8_t>(i * 37);
    const uint64_t base = Checksum64(bytes);
    EXPECT_EQ(Checksum64(bytes), base) << len;
    for (size_t i = 0; i < len; ++i) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::vector<uint8_t> changed = bytes;
        changed[i] ^= flip;
        EXPECT_NE(Checksum64(changed), base)
            << "length " << len << ", byte " << i << ", flip " << int{flip};
      }
    }
  }
}

TEST(Checksum64Test, LengthIsFoldedIn) {
  // Runs of zero bytes differ only in length (a zero tail word and no word
  // at all feed the lanes alike), so the length must tell them apart.
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 40; ++len) {
    seen.insert(Checksum64(std::vector<uint8_t>(len, 0)));
  }
  EXPECT_EQ(seen.size(), 41u);
}

TEST(Checksum64Test, ReadsBytesAtAnyAlignment) {
  std::vector<uint8_t> buffer(80);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 11 + 3);
  }
  for (size_t offset = 1; offset < 8; ++offset) {
    for (size_t len = 0; len <= 40; ++len) {
      const std::span<const uint8_t> unaligned(buffer.data() + offset, len);
      const std::vector<uint8_t> copy(unaligned.begin(), unaligned.end());
      EXPECT_EQ(Checksum64(unaligned), Checksum64(copy))
          << offset << "/" << len;
    }
  }
}

TEST(Checksum64Test, ValuesArePinned) {
  // Every persisted format stores these checksums: changing the function
  // needs a new version of each envelope and page magic.
  const std::string text = "semi-oblivious chase";
  EXPECT_EQ(Checksum64({}), 0xf4684d3332b4097bULL);
  EXPECT_EQ(Checksum64(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(text.data()), text.size())),
            0x82227c56dc7df4b2ULL);
  EXPECT_EQ(Checksum64(std::vector<uint8_t>(64, 0xab)), 0xa0d941ea1d41d865ULL);
}

TEST(ReadFileBytesTest, ReadsARegularFileAndRefusesTheRest) {
  const std::string path = testing::TempDir() + "/base_test_read.bin";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("abc", file);
    std::fclose(file);
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, (std::vector<uint8_t>{'a', 'b', 'c'}));
  std::remove(path.c_str());

  EXPECT_EQ(ReadFileBytes(path).status().code(), StatusCode::kNotFound);
  // A directory opens fine; it must be refused, not sized by seeking.
  const std::string dir = testing::TempDir() + "/base_test_read_dir";
  std::filesystem::create_directories(dir);
  for (const std::string& target : {dir, dir + "/"}) {
    const Status status = ReadFileBytes(target).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << target;
    EXPECT_NE(status.message().find("not a regular file"), std::string::npos)
        << status;
  }
  std::filesystem::remove(dir);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) differences += a.Next() != b.Next();
  EXPECT_GT(differences, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t value = rng.Range(3, 5);
    EXPECT_GE(value, 3u);
    EXPECT_LE(value, 5u);
    saw_lo |= value == 3;
    saw_hi |= value == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBuckets)];
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    EXPECT_NEAR(counts[bucket], kDraws / kBuckets, kDraws / kBuckets / 5);
  }
}

TEST(RngTest, PercentZeroAndHundred) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Percent(0));
    EXPECT_TRUE(rng.Percent(100));
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(11);
  Rng child = parent.Fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(11);
  parent_copy.Fork();
  EXPECT_EQ(parent.Next(), parent_copy.Next());
  (void)child;
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
}

TEST(TimeParamsTest, Totals) {
  obs::TimeParams times;
  times.parse_ms = 1;
  times.graph_ms = 2;
  times.comp_ms = 3;
  times.shapes_ms = 4;
  EXPECT_DOUBLE_EQ(times.TotalMs(), 10);
  EXPECT_DOUBLE_EQ(times.DbIndependentMs(), 6);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TablePrinterTest, JsonOutput) {
  TablePrinter table({"name", "n", "ms", "ratio", "na"});
  table.AddRow({"a \"b\"\\c", "42", "-1.50", "2.0x", "-"});
  table.AddRow({"tab\t", "1e3", ".5", "98.5%", "inf"});
  table.AddRow({"007", "1e999", "nan", "", "18446744073709551615"});
  std::ostringstream os;
  table.PrintJson(os);
  EXPECT_EQ(os.str(),
            "[\n"
            "  {\"name\": \"a \\\"b\\\"\\\\c\", \"n\": 42, \"ms\": -1.50, "
            "\"ratio\": \"2.0x\", \"na\": null},\n"
            "  {\"name\": \"tab\\u0009\", \"n\": 1e3, \"ms\": 0.5, "
            "\"ratio\": \"98.5%\", \"na\": \"inf\"},\n"
            "  {\"name\": 7, \"n\": \"1e999\", \"ms\": \"nan\", "
            "\"ratio\": \"\", \"na\": 18446744073709551615}\n"
            "]\n");
}

TEST(FlatSetTest, IndicesAreDenseInInsertionOrder) {
  FlatSet<uint64_t> set;
  EXPECT_EQ(set.Find(uint64_t{7}), FlatSet<uint64_t>::kNotFound);
  const uint64_t values[] = {100, 7, 42, 0, 99};
  for (uint32_t i = 0; i < 5; ++i) {
    const auto [index, fresh] = set.Insert(values[i]);
    EXPECT_EQ(index, i);
    EXPECT_TRUE(fresh);
  }
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(set[i], values[i]);
  EXPECT_EQ(set.TakeItems(), std::vector<uint64_t>(values, values + 5));
}

TEST(FlatSetTest, DuplicateInsertReturnsTheExistingIndex) {
  FlatSet<uint64_t> set;
  set.Insert(uint64_t{3});
  set.Insert(uint64_t{5});
  const auto [index, fresh] = set.Insert(uint64_t{3});
  EXPECT_EQ(index, 0u);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find(uint64_t{5}), 1u);
  EXPECT_FALSE(set.Contains(uint64_t{4}));
  EXPECT_EQ(set.TakeItems(), (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(uint64_t{3}));
  EXPECT_EQ(set.Insert(uint64_t{5}), (std::pair<uint32_t, bool>{0, true}));
}

// An item that counts how often it is built from a ShapeView.
struct CountedShape {
  static inline int constructions = 0;
  Shape shape;
  explicit CountedShape(ShapeView view) : shape(view) { ++constructions; }
  friend bool operator==(const CountedShape& item, ShapeView view) {
    return ShapeView(item.shape) == view;
  }
};
struct CountedShapeHash {
  size_t operator()(ShapeView view) const { return ShapeHash{}(view); }
  size_t operator()(const CountedShape& item) const {
    return ShapeHash{}(item.shape);
  }
};

TEST(FlatSetTest, AHitThroughAViewConstructsNoItem) {
  FlatSet<CountedShape, CountedShapeHash> set;
  CountedShape::constructions = 0;
  const uint8_t first[] = {1, 2, 1};
  const uint8_t second[] = {1, 1, 2};
  EXPECT_TRUE(set.Insert(ShapeView(3, first)).second);
  EXPECT_TRUE(set.Insert(ShapeView(3, second)).second);
  EXPECT_TRUE(set.Insert(ShapeView(4, first)).second);
  EXPECT_EQ(CountedShape::constructions, 3);
  // Equal views over other storage hit without building an item.
  uint8_t buffer[] = {1, 2, 1};
  for (int i = 0; i < 100; ++i) {
    const auto [index, fresh] = set.Insert(ShapeView(3, buffer));
    EXPECT_EQ(index, 0u);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(set.Find(ShapeView(4, buffer)), 2u);
  }
  EXPECT_EQ(CountedShape::constructions, 3);
  EXPECT_EQ(set[1].shape, Shape(3, {1, 1, 2}));
}

// Every key lands in one probe run.
struct ConstantHash {
  size_t operator()(uint64_t) const { return 0x5eed; }
};

TEST(FlatSetTest, SurvivesGrowthAndTotalCollision) {
  // 2000 items from the 16-slot start is seven doublings.
  FlatSet<uint64_t> spread;
  FlatSet<uint64_t, ConstantHash> colliding;
  for (uint64_t v = 0; v < 2000; ++v) {
    const uint64_t key = v * 7919;
    EXPECT_EQ(spread.Insert(key), (std::pair<uint32_t, bool>{v, true}));
    EXPECT_EQ(colliding.Insert(key), (std::pair<uint32_t, bool>{v, true}));
  }
  for (uint64_t v = 0; v < 2000; ++v) {
    const uint64_t key = v * 7919;
    ASSERT_EQ(spread.Find(key), v);
    ASSERT_EQ(colliding.Find(key), v);
    ASSERT_FALSE(spread.Contains(key + 1));
    ASSERT_FALSE(colliding.Contains(key + 1));
    ASSERT_FALSE(colliding.Insert(key).second);
  }
  EXPECT_EQ(spread.size(), 2000u);
  EXPECT_EQ(colliding.size(), 2000u);
}

TEST(FlatSetTest, RandomShapesMatchAStdSet) {
  Rng rng(20261018);
  ShapeSet flat;
  std::set<Shape> reference;
  std::vector<Shape> admitted;  // insertion order of first occurrences
  IdBuffer buffer;
  for (int i = 0; i < 100000; ++i) {
    const auto pred = static_cast<PredId>(rng.Below(8));
    const auto arity = static_cast<size_t>(rng.Range(1, 9));
    uint8_t max_id = 0;
    for (size_t p = 0; p < arity; ++p) {
      buffer[p] = static_cast<uint8_t>(1 + rng.Below(max_id + 1));
      max_id = std::max(max_id, buffer[p]);
    }
    const ShapeView view(pred, std::span<const uint8_t>(buffer.data(), arity));
    const bool fresh = reference.insert(Shape(view)).second;
    const auto [index, inserted] = flat.Insert(view);
    ASSERT_EQ(inserted, fresh);
    if (fresh) {
      ASSERT_EQ(index, admitted.size());
      admitted.emplace_back(view);
    }
    ASSERT_EQ(flat[index], Shape(view));
  }
  for (const Shape& shape : reference) {
    ASSERT_TRUE(flat.Contains(ShapeView(shape)));
  }
  std::vector<Shape> sorted = flat.TakeItems();
  EXPECT_EQ(sorted, admitted);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, std::vector<Shape>(reference.begin(), reference.end()));
}

}  // namespace
}  // namespace chase
