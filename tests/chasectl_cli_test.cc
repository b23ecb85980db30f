// CLI regression suite for chasectl, driving the real binary (path baked
// in as CHASECTL_PATH by CMake). The focus is flag hygiene: every numeric
// flag of every subcommand must diagnose a malformed value and exit with
// code 2 — never die by an uncaught std::invalid_argument out of a raw
// string-to-integer conversion, which is exactly how `--threads=abc` used
// to kill the process. A signal death (WIFEXITED false) fails the test, so
// any resurrected uncaught-exception path is caught here.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

std::string TempDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir != nullptr ? dir : "/tmp";
}

// Moves the file at `path` into `*text` and deletes it.
void TakeFile(const std::string& path, std::string* text) {
  std::ifstream in(path);
  text->assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  std::remove(path.c_str());
}

// Runs `chasectl <args>`, asserting the process exited (as opposed to
// dying by signal — an uncaught exception aborts) and returning its exit
// code. When `err` / `out` are non-null they receive the process's stderr
// / stdout.
int RunChasectl(const std::string& args, std::string* err = nullptr,
                std::string* out = nullptr) {
  const std::string err_path = TempDir() + "/chasectl_cli_test.stderr";
  const std::string out_path = TempDir() + "/chasectl_cli_test.stdout";
  const std::string command =
      std::string(CHASECTL_PATH) + " " + args + " >" +
      (out != nullptr ? out_path : "/dev/null") + " 2>" +
      (err != nullptr ? err_path : "&1");
  const int raw = std::system(command.c_str());
  if (err != nullptr) TakeFile(err_path, err);
  if (out != nullptr) TakeFile(out_path, out);
  EXPECT_TRUE(WIFEXITED(raw)) << "chasectl died by signal on: " << args;
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

class ChasectlCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_path_ = TempDir() + "/chasectl_cli_test.dlgp";
    std::ofstream out(program_path_);
    out << "r(a,b). r(c,c). s(a).\n"
           "r(X,Y) -> r(Y,X).\n";
  }

  static void TearDownTestSuite() { std::remove(program_path_.c_str()); }

  static std::string program_path_;
};

std::string ChasectlCliTest::program_path_;

TEST_F(ChasectlCliTest, MalformedNumericFlagsExitTwo) {
  const std::string file = program_path_;
  const std::string out_idx = TempDir() + "/chasectl_cli_test_bad.chidx";
  const std::string out_gen = TempDir() + "/chasectl_cli_test_bad.dlgp";
  // Every (invocation, numeric flag) pair the CLI accepts; %s is replaced
  // with each malformed value below.
  const std::vector<std::string> invocations = {
      "check " + file + " --mode=l --threads=%s",
      "chase " + file + " --max-atoms=%s",
      "chase " + file + " --metrics-interval=%s",
      "chase " + file + " --max-rounds=%s",
      "chase " + file + " --checkpoint=" + TempDir() +
          "/chasectl_cli_test.chck --checkpoint-every=%s",
      "simplify " + file + " --threads=%s",
      "findshapes " + file + " --threads=%s",
      "index build " + file + " " + out_idx + " --threads=%s",
      "generate " + out_gen + " --preds=%s",
      "generate " + out_gen + " --arity=%s",
      "generate " + out_gen + " --domain=%s",
      "generate " + out_gen + " --tuples=%s",
      "generate " + out_gen + " --seed=%s",
      "generate " + out_gen + " --tgds=%s",
  };
  // Non-numeric, trailing garbage, negative, and past-uint64 overflow.
  const std::vector<std::string> bad_values = {
      "abc", "3x", "-3", "18446744073709551616"};
  for (const std::string& invocation : invocations) {
    for (const std::string& value : bad_values) {
      std::string args = invocation;
      args.replace(args.find("%s"), 2, value);
      EXPECT_EQ(RunChasectl(args), 2) << args;
    }
  }
}

TEST_F(ChasectlCliTest, OutOfRangeNumericFlagsExitTwo) {
  // In-format but out-of-bounds values: threads has a [1, 1024] window,
  // and generate's arity is capped at Schema::kMaxArity.
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --mode=l --threads=0"),
            2);
  EXPECT_EQ(
      RunChasectl("check " + program_path_ + " --mode=l --threads=4096"), 2);
  EXPECT_EQ(RunChasectl("generate " + TempDir() +
                        "/chasectl_cli_test_bad.dlgp --arity=300"),
            2);
}

TEST_F(ChasectlCliTest, WellFormedFlagsStillRun) {
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --variant=re --max-atoms=1000"),
            0);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --variant=so"), 0);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ +
                        " --mode=exists --threads=2"),
            0);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --mode=l --threads=2"),
            0);
}

TEST_F(ChasectlCliTest, UnknownEnumValuesExitTwo) {
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --mode=bogus"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --variant=bogus"), 2);
  // generate --class takes sl or l, spelled exactly: anything else used to
  // write a linear program.
  const std::string out = TempDir() + "/chasectl_cli_test_class.dlgp";
  for (const char* value : {"SL", "L", "bogus", ""}) {
    std::string err;
    std::remove(out.c_str());
    EXPECT_EQ(RunChasectl("generate " + out + " --tgds=3 --class=" + value,
                          &err),
              2)
        << value;
    EXPECT_NE(err.find("unknown --class=" + std::string(value)),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::filesystem::exists(out)) << value;
  }
  for (const char* value : {"sl", "l"}) {
    EXPECT_EQ(RunChasectl("generate " + out + " --tgds=3 --class=" + value), 0)
        << value;
  }
  std::remove(out.c_str());
}

TEST_F(ChasectlCliTest, UnknownFlagsExitTwo) {
  // Every subcommand rejects a flag it does not read, so a typo fails
  // loudly instead of running with the default it meant to override.
  const std::string file = program_path_;
  const std::string scratch = TempDir() + "/chasectl_cli_test_unknown";
  const std::vector<std::string> invocations = {
      "check " + file,
      "explain " + file,
      "chase " + file,
      "simplify " + file,
      "findshapes " + file,
      "index build " + file + " " + scratch + ".chidx",
      "index stat " + scratch + ".chidx",
      "stats " + file,
      "zoo " + file,
      "generate " + scratch + ".dlgp",
      "graph " + file,
      "normalize " + file + " " + scratch + ".dlgp",
      "convert " + file + " " + scratch + ".dlgp",
  };
  for (const std::string& invocation : invocations) {
    EXPECT_EQ(RunChasectl(invocation + " --bogus"), 2) << invocation;
  }
  // Misspelled flags of the subcommand itself, and a flag that belongs to
  // a different subcommand.
  EXPECT_EQ(RunChasectl("findshapes " + file + " --mode=exists --thread=4"),
            2);
  EXPECT_EQ(RunChasectl("check " + file + " --mode=l --threds=4"), 2);
  EXPECT_EQ(RunChasectl("stats " + file + " --threads=2"), 2);
  // A removed flag is unknown too: old scripts fail instead of running
  // without it.
  std::string err;
  EXPECT_EQ(RunChasectl("findshapes " + file + " --prefetch=8", &err), 2);
  EXPECT_NE(err.find("unknown flag --prefetch"), std::string::npos) << err;
  EXPECT_EQ(RunChasectl("findshapes " + file + " --pool-shards=8", &err), 2);
  EXPECT_NE(err.find("unknown flag --pool-shards"), std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("chase " + file + " --hom-budget=8", &err), 2);
  EXPECT_NE(err.find("unknown flag --hom-budget"), std::string::npos) << err;
  EXPECT_EQ(RunChasectl("chase " + file + " --threads=4", &err), 2);
  EXPECT_NE(err.find("unknown flag --threads"), std::string::npos) << err;
  EXPECT_EQ(RunChasectl("findshapes " + file + " --shards=4", &err), 2);
  EXPECT_NE(err.find("unknown flag --shards"), std::string::npos) << err;
  EXPECT_EQ(RunChasectl("index build " + file + " " + scratch +
                            ".chidx --shards=4",
                        &err),
            2);
  EXPECT_NE(err.find("unknown flag --shards"), std::string::npos) << err;
  // `--backend=index` was an alias of `--mode=index`; it is gone.
  EXPECT_EQ(RunChasectl("findshapes " + file + " --backend=index", &err), 2);
  EXPECT_NE(err.find("unknown --backend=index"), std::string::npos) << err;
  // So is the index plan itself, in every subcommand that offered it.
  for (const std::string& invocation :
       {"findshapes " + file + " --mode=index",
        "simplify " + file + " --mode=index"}) {
    EXPECT_EQ(RunChasectl(invocation, &err), 2) << invocation;
    EXPECT_NE(err.find("unknown --mode=index"), std::string::npos) << err;
  }
  EXPECT_EQ(RunChasectl("check " + file + " --mode=l --shapes=index", &err),
            2);
  EXPECT_NE(err.find("unknown --shapes=index"), std::string::npos) << err;
}

TEST_F(ChasectlCliTest, RemovedSubcommandsExitTwo) {
  // Conjunctive-query answering is gone: `query` is an unknown subcommand
  // and gets the usage text, like any other typo.
  std::string err;
  EXPECT_EQ(RunChasectl("query " + program_path_ + " 'q(X) :- r(X, Y).'",
                        &err),
            2);
  EXPECT_NE(err.find("chasectl check <file>"), std::string::npos) << err;
  EXPECT_EQ(err.find("chasectl query"), std::string::npos) << err;
}

TEST_F(ChasectlCliTest, ZooReportsTheExactVerdictOrFails) {
  const std::string file = TempDir() + "/chasectl_cli_test_zoo.dlgp";
  // A data-only arity-16 predicate is outside sch(Σ), so D⊤ stays at the
  // two shapes of q and the exact line comes back at once.
  {
    std::ofstream out(file);
    out << "q(X,X) -> q(X,Z).\nq(a,a).\n"
           "big(c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12,c13,c14,c15,c16).\n";
  }
  std::string out;
  EXPECT_EQ(RunChasectl("zoo " + file, nullptr, &out), 0);
  EXPECT_NE(out.find("weak acyclicity"), std::string::npos) << out;
  EXPECT_NE(out.find("exact (linear)"), std::string::npos) << out;
  EXPECT_NE(out.find("terminates for all D"), std::string::npos) << out;
  // A non-simple linear rule over an arity-16 predicate would need
  // Bell(16) facts in D⊤: the check refuses up front, and zoo reports the
  // status and exits 1 instead of printing no exact line.
  {
    std::ofstream out_file(file);
    out_file << "big(X,X,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,X13,X14,X15,X16)"
                " -> big(X,Z,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,X13,X14,X15,"
                "X16).\n";
  }
  std::string err;
  EXPECT_EQ(RunChasectl("zoo " + file, &err, &out), 1);
  EXPECT_NE(err.find("RESOURCE_EXHAUSTED"), std::string::npos) << err;
  EXPECT_EQ(out.find("exact (linear)"), std::string::npos) << out;
  std::remove(file.c_str());
}

TEST_F(ChasectlCliTest, FlagsThePathDoesNotReadExitTwo) {
  // A flag the subcommand accepts but the chosen path never reads is
  // diagnosed by name instead of silently ignored.
  const std::string file = program_path_;
  std::string err;
  EXPECT_EQ(RunChasectl("check " + file +
                            " --mode=l --snapshot=s.chidx --shapes=mem",
                        &err),
            2);
  EXPECT_NE(err.find("--snapshot excludes --shapes"), std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("check " + file +
                            " --mode=sl --shapes=bogus --threads=abc",
                        &err),
            2);
  EXPECT_NE(err.find("--shapes is L-mode only"), std::string::npos) << err;
  for (const char* flag : {"--threads=2", "--snapshot=s.chidx"}) {
    EXPECT_EQ(RunChasectl("check " + file + " --mode=sl " + flag, &err), 2)
        << flag;
    EXPECT_NE(err.find("is L-mode only"), std::string::npos) << err;
  }
  EXPECT_EQ(RunChasectl("findshapes " + file +
                            " --snapshot=s.chidx --threads=abc --mode=bogus"
                            " --backend=nope",
                        &err),
            2);
  EXPECT_NE(err.find("--snapshot excludes --"), std::string::npos) << err;
  for (const char* flag :
       {"--mode=scan", "--backend=memory", "--threads=2", "--store=s.db"}) {
    EXPECT_EQ(RunChasectl("findshapes " + file + " --snapshot=s.chidx " + flag,
                          &err),
              2)
        << flag;
    const std::string name =
        std::string(flag).substr(0, std::string(flag).find('='));
    EXPECT_NE(err.find("--snapshot excludes " + name), std::string::npos)
        << err;
  }
  // `index` accepts build's flags, but `index stat` reads none of them.
  const std::string snapshot = TempDir() + "/chasectl_cli_test_stat.chidx";
  ASSERT_EQ(RunChasectl("index build " + file + " " + snapshot), 0);
  EXPECT_EQ(RunChasectl("index stat " + snapshot), 0);
  for (const char* flag : {"--backend=disk", "--threads=2", "--store=s.db"}) {
    EXPECT_EQ(RunChasectl("index stat " + snapshot + " " + flag, &err), 2)
        << flag;
    const std::string name =
        std::string(flag).substr(2, std::string(flag).find('=') - 2);
    EXPECT_NE(err.find("index stat takes no --" + name), std::string::npos)
        << err;
  }
  std::remove(snapshot.c_str());
}

// The pager stores that findshapes and index build write to /tmp for
// --backend=disk without --store, one per process.
size_t ScratchStores() {
  size_t stores = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    const std::string name = entry.path().filename().string();
    if ((name.rfind("chasectl_findshapes.", 0) == 0 ||
         name.rfind("chasectl_index.", 0) == 0) &&
        entry.path().extension() == ".db") {
      ++stores;
    }
  }
  return stores;
}

TEST_F(ChasectlCliTest, DiskBackendRemovesItsScratchStore) {
  // On success and on failure alike a scratch store is removed; a --store
  // path is the caller's and is kept.
  const std::string file = program_path_;
  const std::string snapshot = TempDir() + "/chasectl_cli_test_disk.chidx";
  const std::string store = TempDir() + "/chasectl_cli_test_disk.db";
  const size_t before = ScratchStores();
  EXPECT_EQ(RunChasectl("findshapes " + file + " --backend=disk"), 0);
  EXPECT_EQ(RunChasectl("index build " + file + " " + snapshot +
                        " --backend=disk"),
            0);
  // Saving into a missing directory fails after the store was written.
  EXPECT_EQ(RunChasectl("index build " + file + " " + TempDir() +
                        "/no_such_dir/x.chidx --backend=disk"),
            1);
  EXPECT_EQ(ScratchStores(), before);
  for (const std::string& invocation :
       {"findshapes " + file + " --backend=disk --store=" + store,
        "index build " + file + " " + snapshot + " --backend=disk --store=" +
            store}) {
    std::remove(store.c_str());
    EXPECT_EQ(RunChasectl(invocation), 0) << invocation;
    EXPECT_TRUE(std::filesystem::exists(store)) << invocation;
  }
  std::remove(store.c_str());
  std::remove(snapshot.c_str());
}

TEST_F(ChasectlCliTest, SnapshotMustIndexTheProgramsDatabase) {
  const std::string dir = TempDir() + "/chasectl_cli_test_snapshot";
  const std::string own = dir + "_own.chidx";
  const std::string other_program = dir + "_other.dlgp";
  const std::string other = dir + "_other.chidx";
  // A 50-predicate program's snapshot names predicate ids the 2-predicate
  // test program does not have.
  ASSERT_EQ(RunChasectl("generate " + other_program +
                        " --preds=50 --tuples=200"),
            0);
  ASSERT_EQ(RunChasectl("index build " + other_program + " " + other), 0);
  // Same tuple count as the test program, different tuples: only the
  // content fingerprint tells them apart.
  const std::string twin_program = dir + "_twin.dlgp";
  const std::string twin = dir + "_twin.chidx";
  {
    std::ofstream out(twin_program);
    out << "r(a,b). r(c,c). s(b).\n";
  }
  ASSERT_EQ(RunChasectl("index build " + twin_program + " " + twin), 0);

  for (const std::string& snapshot : {other, twin}) {
    for (const std::string& invocation :
         {"findshapes " + program_path_ + " --print --snapshot=" + snapshot,
          "check " + program_path_ + " --mode=l --snapshot=" + snapshot}) {
      std::string err;
      EXPECT_EQ(RunChasectl(invocation, &err), 1) << invocation;
      EXPECT_NE(err.find("stale or mismatched snapshot"), std::string::npos)
          << invocation << ": " << err;
    }
  }

  // The program's own snapshot still serves its shapes.
  ASSERT_EQ(RunChasectl("index build " + program_path_ + " " + own), 0);
  std::string out;
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ +
                            " --print --snapshot=" + own,
                        nullptr, &out),
            0);
  EXPECT_NE(out.find("3 shape(s) over 3 indexed tuples"), std::string::npos)
      << out;
  EXPECT_NE(out.find("  backend: snapshot\n"), std::string::npos) << out;
  EXPECT_EQ(out.find("plan:"), std::string::npos) << out;
  for (const char* shape : {"r_[1,1]", "r_[1,2]", "s_[1]"}) {
    EXPECT_NE(out.find(shape), std::string::npos) << shape << " in " << out;
  }
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --mode=l --snapshot=" +
                            own,
                        nullptr, &out),
            0);
  EXPECT_EQ(out.substr(0, 7), "FINITE\n") << out;
  EXPECT_NE(out.find("(3 db shapes,"), std::string::npos) << out;
  for (const std::string& path :
       {own, other, other_program, twin, twin_program}) {
    std::remove(path.c_str());
  }
}

// A directory given as the program, text or binary, is an error with a
// message — never a verdict on an empty program, never an abort.
TEST_F(ChasectlCliTest, DirectoryProgramFailsWithAnError) {
  for (const std::string& dir :
       {TempDir() + "/chasectl_cli_test_dir.dlgp",
        TempDir() + "/chasectl_cli_test_dir.chbin"}) {
    std::filesystem::create_directories(dir);
    for (const std::string& command : {"check ", "findshapes "}) {
      std::string err, out;
      EXPECT_EQ(RunChasectl(command + dir, &err, &out), 1) << command << dir;
      EXPECT_NE(err.find("not a regular file"), std::string::npos)
          << command << dir << ": " << err;
      EXPECT_EQ(out.find("FINITE"), std::string::npos) << out;
    }
    std::filesystem::remove(dir);
  }
}

TEST_F(ChasectlCliTest, MalformedObservabilityFlagsExitTwo) {
  // --progress takes an optional whole-seconds value in [1, 86400]; bare
  // --progress is fine (tested below) but garbage values are diagnosed.
  for (const std::string value : {"abc", "1.5", "-3", "0", "86401"}) {
    EXPECT_EQ(RunChasectl("chase " + program_path_ + " --progress=" + value),
              2)
        << value;
  }
  // --metrics-interval has no bare form (a cadence needs a value) and the
  // same [1, 86400] whole-seconds window as --progress.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics-interval"), 2);
  for (const std::string value : {"abc", "1.5", "-3", "0", "86401"}) {
    EXPECT_EQ(RunChasectl("chase " + program_path_ +
                          " --metrics-interval=" + value),
              2)
        << value;
  }
  // --trace / --metrics require a path: the bare-flag and empty-value
  // forms are syntax errors, not runs that silently drop the artifact.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --trace"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics"), 2);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --trace"), 2);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --metrics"), 2);
  std::string err;
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --trace= --metrics=",
                        &err),
            2);
  EXPECT_NE(err.find("bad --trace (want --trace=FILE)"), std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics=", &err), 2);
  EXPECT_NE(err.find("bad --metrics (want --metrics=FILE)"),
            std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --trace="), 2);
}

TEST_F(ChasectlCliTest, UnwritableArtifactPathsFailCleanlyUpFront) {
  // A path in a nonexistent directory must be a clean diagnosed exit 1
  // (probed before the run) — never a crash, and never exit 0 with the
  // artifact missing. RunChasectl itself asserts "exited, not signaled".
  const std::string bad = "/nonexistent-dir-for-chasectl-test/out.json";
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --trace=" + bad), 1);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics=" + bad), 1);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --trace=" + bad), 1);
  EXPECT_EQ(RunChasectl("simplify " + program_path_ + " --metrics=" + bad),
            1);
}

TEST_F(ChasectlCliTest, MalformedCheckpointFlagsExitTwo) {
  const std::string ck = TempDir() + "/chasectl_cli_test_flags.chck";
  // --checkpoint and --resume require a path: the bare-flag and
  // empty-value forms are syntax errors, not runs that silently drop the
  // checkpoint.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --resume"), 2);
  std::string err;
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint=", &err), 2);
  EXPECT_NE(err.find("bad --checkpoint (want --checkpoint=FILE)"),
            std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --resume=", &err), 2);
  EXPECT_NE(err.find("bad --resume (want --resume=FILE)"), std::string::npos)
      << err;
  // A cadence without a file to write has nothing to mean.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint-every=2"),
            2);
  // The cadence is a whole positive round count.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint=" + ck +
                        " --checkpoint-every=0"),
            2);
}

TEST_F(ChasectlCliTest, MalformedStoreAndSnapshotFlagsExitTwo) {
  // --store and --snapshot name files too: the bare form must not become
  // a store or snapshot named `true` in the working directory.
  for (const std::string invocation :
       {"findshapes " + program_path_ + " --backend=disk --store",
        "index build " + program_path_ + " " + TempDir() +
            "/chasectl_cli_test_store.chidx --backend=disk --store=",
        "check " + program_path_ + " --mode=l --snapshot",
        "findshapes " + program_path_ + " --snapshot="}) {
    EXPECT_EQ(RunChasectl(invocation), 2) << invocation;
  }
  EXPECT_FALSE(std::filesystem::exists("true"));
  std::string err;
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --store=", &err), 2);
  EXPECT_NE(err.find("bad --store (want --store=FILE)"), std::string::npos)
      << err;
  EXPECT_EQ(
      RunChasectl("check " + program_path_ + " --mode=l --snapshot=", &err),
      2);
  EXPECT_NE(err.find("bad --snapshot (want --snapshot=FILE)"),
            std::string::npos)
      << err;
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --snapshot", &err),
            2);
  EXPECT_NE(err.find("bad --snapshot (want --snapshot=FILE)"),
            std::string::npos)
      << err;
}

TEST_F(ChasectlCliTest, CheckpointPathProblemsFailCleanlyUpFront) {
  // An unwritable checkpoint destination is probed before the run; a
  // missing resume source is a clean load failure. Both exit 1, never a
  // crash and never a run whose checkpoint silently went nowhere.
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --checkpoint=/nonexistent-dir-for-chasectl/x.chck"),
            1);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --resume=" + TempDir() +
                        "/chasectl_cli_test_missing.chck"),
            1);
}

TEST_F(ChasectlCliTest, CheckpointResumeRoundTrips) {
  // A non-terminating chain, so both legs end at their round limits.
  const std::string file = TempDir() + "/chasectl_cli_test_nonterm.dlgp";
  {
    std::ofstream out(file);
    out << "e(a,b).\ne(X,Y) -> e(Y,Z).\n";
  }
  const std::string ck = TempDir() + "/chasectl_cli_test_resume.chck";
  std::remove(ck.c_str());
  EXPECT_EQ(RunChasectl("chase " + file + " --variant=ob --max-rounds=2" +
                        " --checkpoint=" + ck + " --checkpoint-every=1"),
            0);
  std::ifstream in(ck, std::ios::binary);
  ASSERT_TRUE(in.good()) << ck;
  // --resume without --variant adopts the checkpoint's variant; a
  // conflicting explicit variant is a diagnosed failure, not a divergent
  // chase.
  EXPECT_EQ(RunChasectl("chase " + file + " --resume=" + ck +
                        " --max-rounds=4"),
            0);
  EXPECT_EQ(RunChasectl("chase " + file + " --resume=" + ck +
                        " --variant=so --max-rounds=4"),
            1);
  std::remove(ck.c_str());
  std::remove(file.c_str());
}

TEST_F(ChasectlCliTest, ChasePrintsOneSummaryLine) {
  // Without --print, the chase's whole stdout is its one summary line.
  std::string out;
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --variant=re", nullptr,
                        &out),
            0);
  EXPECT_EQ(out.rfind("restricted chase: fixpoint after ", 0), 0u) << out;
  EXPECT_NE(out.find(" rows probed, "), std::string::npos) << out;
  EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
}

// The milliseconds printed on the `  <label> <ms> ms` line of `out`, or -1.
double PrintedMs(const std::string& out, const std::string& label) {
  const size_t at = out.find("  " + label);
  if (at == std::string::npos) return -1;
  return std::strtod(out.c_str() + at + 2 + label.size(), nullptr);
}

// check's t-total covers the whole check, its t-parse (the load) included,
// in both modes.
TEST_F(ChasectlCliTest, CheckTotalIncludesParse) {
  for (const char* mode : {"sl", "l"}) {
    std::string out;
    ASSERT_EQ(RunChasectl("check " + program_path_ + " --mode=" + mode,
                          nullptr, &out),
              0)
        << mode;
    const double parse_ms = PrintedMs(out, "t-parse:");
    const double total_ms = PrintedMs(out, "t-total:");
    ASSERT_GE(parse_ms, 0) << out;
    ASSERT_GE(total_ms, 0) << out;
    EXPECT_GE(total_ms, parse_ms) << mode << "\n" << out;
  }
}

TEST_F(ChasectlCliTest, ObservabilityRunsProduceArtifacts) {
  const std::string trace_path = TempDir() + "/chasectl_cli_test_trace.json";
  const std::string metrics_path =
      TempDir() + "/chasectl_cli_test_metrics.json";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --progress --trace=" + trace_path +
                        " --metrics=" + metrics_path),
            0);
  // Non-empty artifacts that at least look like JSON objects; the real
  // structural validation lives in obs_test and the CI jq smoke.
  for (const std::string& path : {trace_path, metrics_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    char first = '\0';
    in >> first;
    EXPECT_EQ(first, '{') << path;
  }
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  // --progress with an explicit interval still runs.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --progress=1"), 0);
  // --metrics-interval runs standalone (registry enabled just for the
  // periodic stderr dumps) and alongside a --metrics artifact.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics-interval=1"),
            0);
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --metrics-interval=1 --metrics=" + metrics_path),
            0);
  std::remove(metrics_path.c_str());
  // check --metrics exercises the RecordTimeParams path.
  EXPECT_EQ(RunChasectl("check " + program_path_ +
                        " --mode=l --metrics=" + metrics_path),
            0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::string dump((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(dump.find("check.t_total_ms"), std::string::npos);
  std::remove(metrics_path.c_str());
}

}  // namespace
