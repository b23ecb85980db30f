#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "base/bytes.h"
#include "base/hash.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace io {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

void ExpectSamePrograms(const Program& a, const Program& b) {
  ASSERT_EQ(a.schema->NumPredicates(), b.schema->NumPredicates());
  for (PredId pred = 0; pred < a.schema->NumPredicates(); ++pred) {
    EXPECT_EQ(a.schema->PredicateName(pred), b.schema->PredicateName(pred));
    EXPECT_EQ(a.schema->Arity(pred), b.schema->Arity(pred));
    auto ta = a.database->Tuples(pred);
    auto tb = b.database->Tuples(pred);
    ASSERT_EQ(ta.size(), tb.size());
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
  }
  EXPECT_EQ(a.database->NumConstants(), b.database->NumConstants());
  ASSERT_EQ(a.tgds.size(), b.tgds.size());
  for (size_t i = 0; i < a.tgds.size(); ++i) {
    EXPECT_EQ(a.tgds[i], b.tgds[i]);
  }
}

// `envelope` with its payload replaced by `payload`: the magic and version
// are kept and the size and checksum restamped, so only the payload's own
// validation can reject the result.
std::vector<uint8_t> WithPayload(const std::vector<uint8_t>& envelope,
                                 const ByteWriter& payload) {
  ByteWriter out;
  out.PutU64(0);
  out.PutU64(payload.bytes().size());
  out.PutU64(Checksum64(payload.bytes()));
  std::vector<uint8_t> bytes = out.Take();
  std::memcpy(bytes.data(), envelope.data(), 8);  // magic | version
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());
  return bytes;
}

// A program payload with one binary predicate `r` whose relation is the
// length prefix `count` followed by `values` ids.
ByteWriter OneRelationPayload(uint64_t count,
                              const std::vector<uint32_t>& values) {
  ByteWriter payload;
  payload.PutU32(1);  // predicates
  payload.PutString("r");
  payload.PutU32(2);  // arity
  payload.PutU32(0);  // named constants
  payload.PutU64(8);  // anonymous domain
  payload.PutU64(count);
  for (uint32_t value : values) payload.PutU32(value);
  payload.PutU32(0);  // TGDs
  return payload;
}

TEST(BinaryIoTest, RoundTripParsedProgram) {
  Program p = MustParse(R"(
    person(alice). person(bob). knows(alice, bob).
    person(X) -> knows(X, Y), person(Y).
    knows(X, Y) -> knows(Y, X).
    r(A, A, B) -> s(B, A).
  )");
  std::vector<uint8_t> bytes =
      SerializeProgram(*p.schema, *p.database, p.tgds);
  auto loaded = DeserializeProgram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSamePrograms(p, *loaded);
  // Constant names survive.
  EXPECT_EQ(loaded->database->ConstantName(0), "alice");
}

TEST(BinaryIoTest, RoundTripGeneratedWorkload) {
  DataGenParams data_params;
  data_params.preds = 10;
  data_params.min_arity = 1;
  data_params.max_arity = 5;
  data_params.dsize = 500;
  data_params.rsize = 200;
  data_params.seed = 5;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams tgd_params;
  tgd_params.ssize = 10;
  tgd_params.min_arity = 1;
  tgd_params.max_arity = 5;
  tgd_params.tsize = 300;
  tgd_params.tclass = TgdClass::kLinear;
  tgd_params.seed = 6;
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  ASSERT_TRUE(tgds.ok());

  std::vector<uint8_t> bytes =
      SerializeProgram(*data->schema, *data->database, tgds.value());
  auto loaded = DeserializeProgram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->tgds.size(), tgds->size());
  EXPECT_EQ(loaded->database->TotalFacts(), data->database->TotalFacts());
}

TEST(BinaryIoTest, FileRoundTrip) {
  Program p = MustParse("r(a, b).\nr(X, Y) -> r(Y, Z).");
  const std::string path = testing::TempDir() + "/bin_io_roundtrip.chbin";
  ASSERT_TRUE(SaveProgram(*p.schema, *p.database, p.tgds, path).ok());
  auto loaded = LoadProgram(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSamePrograms(p, *loaded);
}

TEST(BinaryIoTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  auto loaded = DeserializeProgram(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BinaryIoTest, TruncationRejected) {
  Program p = MustParse("r(a, b).\nr(X, Y) -> r(Y, Z).");
  std::vector<uint8_t> bytes =
      SerializeProgram(*p.schema, *p.database, p.tgds);
  bytes.resize(bytes.size() / 2);
  auto loaded = DeserializeProgram(bytes);
  EXPECT_FALSE(loaded.ok());
}

TEST(BinaryIoTest, CorruptionRejectedByChecksum) {
  Program p = MustParse("r(a, b).\nr(X, Y) -> r(Y, Z).");
  std::vector<uint8_t> bytes =
      SerializeProgram(*p.schema, *p.database, p.tgds);
  bytes[bytes.size() - 3] ^= 0xff;
  auto loaded = DeserializeProgram(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BinaryIoTest, EveryByteFlipRejected) {
  Program p = MustParse("r(a, b).\nr(X, Y) -> r(Y, Z).");
  const std::vector<uint8_t> bytes =
      SerializeProgram(*p.schema, *p.database, p.tgds);
  ASSERT_TRUE(DeserializeProgram(bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x40}, uint8_t{0xff}}) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[i] ^= flip;
      EXPECT_FALSE(DeserializeProgram(corrupt).ok())
          << "accepted flip " << int{flip} << " at byte " << i;
    }
  }
}

TEST(BinaryIoTest, SnapshotEveryByteFlipRejected) {
  ShapeSnapshot snapshot;
  snapshot.fingerprint = 0x0123456789abcdefULL;
  snapshot.counts = {{Shape{0, {1, 1}}, 2}, {Shape{0, {1, 2}}, 5},
                     {Shape{3, {1}}, 1}};
  const std::vector<uint8_t> bytes = SerializeShapeSnapshot(snapshot);
  ASSERT_TRUE(DeserializeShapeSnapshot(bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x40}, uint8_t{0xff}}) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[i] ^= flip;
      EXPECT_FALSE(DeserializeShapeSnapshot(corrupt).ok())
          << "accepted flip " << int{flip} << " at byte " << i;
    }
  }
}

// The checksum change bumped every envelope's version; a file of the
// previous version is refused by that version, never parsed.
TEST(BinaryIoTest, PreviousVersionsRefused) {
  Program p = MustParse("r(a, b).");
  struct Case {
    std::vector<uint8_t> bytes;
    Status (*load)(std::span<const uint8_t>);
    std::string message;
  };
  const std::vector<Case> cases = {
      {SerializeProgram(*p.schema, *p.database, p.tgds),
       [](std::span<const uint8_t> b) {
         return DeserializeProgram(b).status();
       },
       "unsupported chase binary program version 1"},
      {SerializeShapeSnapshot(ShapeSnapshot{}),
       [](std::span<const uint8_t> b) {
         return DeserializeShapeSnapshot(b).status();
       },
       "unsupported chase shape snapshot version 2"},
      {SerializeChaseCheckpoint(ChaseCheckpoint{}),
       [](std::span<const uint8_t> b) {
         return DeserializeChaseCheckpoint(b).status();
       },
       "unsupported chase checkpoint version 2"},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.load(c.bytes).ok()) << c.message;
    std::vector<uint8_t> previous = c.bytes;
    previous[4] -= 1;  // the version's low byte
    const Status status = c.load(previous);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << c.message;
    EXPECT_NE(status.message().find(c.message), std::string::npos) << status;
  }
}

TEST(BinaryIoTest, RelationLengthPrefixIsValidated) {
  Program p;
  const std::vector<uint8_t> envelope =
      SerializeProgram(*p.schema, *p.database, p.tgds);

  // Control: the handcrafted payload loads when it is well formed.
  auto loaded = DeserializeProgram(WithPayload(envelope,
                                               OneRelationPayload(2, {3, 4})));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->database->TotalFacts(), 1u);
  EXPECT_EQ(loaded->database->Tuple(0, 0)[1], 4u);

  // A length prefix running past the payload is truncation, caught before
  // anything is allocated — also for one near 2^64.
  for (uint64_t count : {uint64_t{4}, uint64_t{1} << 40, ~uint64_t{0}}) {
    const Status status =
        DeserializeProgram(
            WithPayload(envelope, OneRelationPayload(count, {3, 4})))
            .status();
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << count;
  }

  // Three ids for a binary predicate: not arity-strided.
  const Status status =
      DeserializeProgram(
          WithPayload(envelope, OneRelationPayload(3, {3, 4, 5})))
          .status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("not arity-strided"), std::string::npos)
      << status;
}

TEST(BinaryIoTest, LoadersRefuseADirectory) {
  const std::string dir = testing::TempDir() + "/binary_io_test_dir.chbin";
  std::filesystem::create_directories(dir);
  for (const std::string& path : {dir, dir + "/"}) {
    EXPECT_EQ(LoadProgram(path).status().code(),
              StatusCode::kInvalidArgument)
        << path;
    EXPECT_EQ(LoadShapeSnapshot(path).status().code(),
              StatusCode::kInvalidArgument)
        << path;
    EXPECT_EQ(LoadChaseCheckpoint(path).status().code(),
              StatusCode::kInvalidArgument)
        << path;
  }
  std::filesystem::remove(dir);
}

TEST(BinaryIoTest, MissingFileIsNotFound) {
  auto loaded = LoadProgram(testing::TempDir() + "/does_not_exist.chbin");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(BinaryIoTest, EmptyProgramRoundTrips) {
  Program p;
  std::vector<uint8_t> bytes =
      SerializeProgram(*p.schema, *p.database, p.tgds);
  auto loaded = DeserializeProgram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->schema->NumPredicates(), 0u);
  EXPECT_TRUE(loaded->tgds.empty());
}

}  // namespace
}  // namespace io
}  // namespace chase
