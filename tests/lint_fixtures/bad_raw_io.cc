// Fixture for tools_lint_test: binary stream reads and writes outside the
// archive. This file is never compiled; the lint engine reads it as text.

#include <istream>
#include <ostream>
#include <string>

void WritesBytesByHand(std::ostream& out, const std::string& bytes) {
  out.write(bytes.data(), 4);  // banned: raw write
  out.rdbuf()->sputn(bytes.data(), 4);  // banned: raw write
}

void ReadsBytesByHand(std::istream& in, std::istream* other, char* buffer) {
  in.read(buffer, 4);  // banned: raw read
  other->readsome(buffer, 4);  // banned: raw read
  in.rdbuf()->sgetn(buffer, 4);  // banned: raw read
}
