// Per-process scratch file paths for tests.
//
// gtest_discover_tests runs every TEST in its own process, so under
// `ctest -j` fixtures writing fixed names into the shared
// testing::TempDir() would race each other. The PID keeps them apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace mpisect::test {

/// `name` inside testing::TempDir(), unique to this process.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mpisect_" + std::to_string(::getpid()) +
         "_" + name;
}

}  // namespace mpisect::test
