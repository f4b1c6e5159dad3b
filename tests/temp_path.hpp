// A scratch file path unique to the running process and test case. ctest
// runs every discovered gtest case as its own process, several at once
// (`ctest -j`), so one fixed name under ::testing::TempDir() would be
// written by concurrent cases; the test's full name plus the pid keeps
// them apart. scripts/lint_invariants.py rejects fixed TempDir() names in
// tests/.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace rhhh::test {

/// <TempDir>/<stem>_<suite>_<test>_<pid><ext>; call from inside a test (or
/// a fixture member initializer).
[[nodiscard]] inline std::string unique_temp_path(const std::string& stem,
                                                  const std::string& ext = "") {
  std::string name = stem;
  if (const ::testing::TestInfo* t =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += '_';
    name += t->test_suite_name();
    name += '_';
    name += t->name();
  }
  // Parameterized names carry '/' ("Suite/Case/0").
  std::replace(name.begin(), name.end(), '/', '_');
  name += '_';
  name += std::to_string(::getpid());
  name += ext;
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name;
}

}  // namespace rhhh::test
