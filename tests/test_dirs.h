// Scratch data directories for tests that need a real one (block stores,
// checkpoints). FreshTestDir(name) returns an empty directory path under
// ::testing::TempDir(); every directory handed out during a test is removed
// when that test ends, pass or fail, so a suite run leaves nothing behind.
#ifndef ALGORAND_TESTS_TEST_DIRS_H_
#define ALGORAND_TESTS_TEST_DIRS_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace algorand {

class TestDirRemover : public ::testing::EmptyTestEventListener {
 public:
  static std::vector<std::string>& Pending() {
    static std::vector<std::string> dirs;
    return dirs;
  }

  void OnTestEnd(const ::testing::TestInfo&) override {
    for (const std::string& dir : Pending()) {
      std::filesystem::remove_all(dir);
    }
    Pending().clear();
  }
};

inline std::string FreshTestDir(const std::string& name) {
  // Registered on first use, before RUN_ALL_TESTS reaches the test's end.
  static const bool registered = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new TestDirRemover);
    return true;
  }();
  (void)registered;
  std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  TestDirRemover::Pending().push_back(dir);
  return dir;
}

}  // namespace algorand

#endif  // ALGORAND_TESTS_TEST_DIRS_H_
