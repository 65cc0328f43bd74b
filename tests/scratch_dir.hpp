// Per-test scratch directory for tests that write files. ctest runs every
// test in its own process, in parallel under `ctest -j`, so a fixed file name
// under the temp directory collides across those processes. A ScratchDir is
// keyed on the running test's name and the process id, created on
// construction and removed with its contents on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace emts::test_support {

class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr
                           ? std::string{info->test_suite_name()} + "." + info->name()
                           : std::string{"no_test"};
    // Parameterized names carry '/' and other path-hostile characters.
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '_') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("emts_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Path of `file` inside this test's directory.
  std::string path(const std::string& file) const { return (dir_ / file).string(); }

 private:
  std::filesystem::path dir_;
};

}  // namespace emts::test_support
