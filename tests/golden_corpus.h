#ifndef CAROUSEL_TESTS_GOLDEN_CORPUS_H_
#define CAROUSEL_TESTS_GOLDEN_CORPUS_H_

// Golden byte-format files under tests/corpus/: one "<name> <size> <hex>"
// line per pinned encoding. The wire and storage suites rebuild the same
// named encodings from fixed inputs and compare, so any change to a byte
// of the wire format, the WAL, the snapshot or the prepare-pin blob fails
// loudly. A deliberate format change regenerates the file from the lines
// the failing test prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace carousel::test {

/// "<size> <lowercase hex>" — the value half of a corpus line.
inline std::string GoldenValue(size_t size, const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string line = std::to_string(size) + " ";
  for (uint8_t b : bytes) {
    line.push_back(kDigits[b >> 4]);
    line.push_back(kDigits[b & 0xf]);
  }
  return line;
}

/// Compares `actual` (name -> GoldenValue) against the corpus file.
inline void ExpectMatchesGoldenCorpus(
    const std::string& path, const std::map<std::string, std::string>& actual) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden corpus " << path;
  std::map<std::string, std::string> expected;
  std::string name, value;
  while (in >> name && std::getline(in >> std::ws, value)) {
    expected[name] = value;
  }
  for (const auto& [key, line] : actual) {
    auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << path << " has no entry for " << key << "; now:\n"
                    << key << " " << line;
      continue;
    }
    EXPECT_EQ(line, it->second) << "format drift in " << key << "; now:\n"
                                << key << " " << line;
  }
  EXPECT_EQ(actual.size(), expected.size())
      << path << " pins a different set of encodings";
}

}  // namespace carousel::test

#endif  // CAROUSEL_TESTS_GOLDEN_CORPUS_H_
