// Fuzz target for the XML parser: feeds arbitrary bytes through both the
// strict and the recovering entry points under tight resource limits and
// checks the cross-mode invariants:
//
//   * neither mode crashes, overflows the stack, or trips a sanitizer;
//   * a strict success implies a recovering success with zero diagnostics
//     (recovery only ever engages on malformed input);
//   * any successful parse yields a document with a root element;
//   * writing is a fixed point: a strictly parsed document, written out,
//     parses strictly again and writes the same bytes (declaration aside).
//
// Build with -fsanitize=fuzzer under clang (SXNM_LIBFUZZER=ON), or link
// against replay_main.cc to replay the checked-in corpus as a plain test.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "xml/parser.h"
#include "xml/writer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);

  sxnm::xml::ParseOptions options;
  options.max_depth = 512;          // keep hostile nesting cheap to reject
  options.max_input_bytes = 1 << 20;
  options.max_nodes = 1 << 16;
  options.max_attr_count = 64;
  options.max_diagnostics = 64;

  auto strict = sxnm::xml::Parse(input, options);
  if (strict.ok() && strict->root() == nullptr) __builtin_trap();

  auto recovered = sxnm::xml::ParseRecovering(input, options);
  if (recovered.ok()) {
    if (recovered->doc.root() == nullptr) __builtin_trap();
    if (strict.ok() && !recovered->clean()) __builtin_trap();
  } else if (strict.ok()) {
    __builtin_trap();  // recovery must not fail where strict succeeded
  }

  if (strict.ok()) {
    // Escaping and indentation make the output larger than the input, so
    // only the size limit is lifted for the second parse. The declaration
    // is left out: its pseudo-attributes are copied verbatim, unchecked,
    // so a version or encoding holding a quote does not survive a write.
    sxnm::xml::ParseOptions reparse_options = options;
    reparse_options.max_input_bytes = 0;
    const sxnm::xml::WriteOptions write_options{.declaration = false};
    const std::string written =
        sxnm::xml::WriteDocument(strict.value(), write_options);
    auto reparsed = sxnm::xml::Parse(written, reparse_options);
    if (!reparsed.ok()) __builtin_trap();
    if (sxnm::xml::WriteDocument(reparsed.value(), write_options) != written) {
      __builtin_trap();
    }
  }
  return 0;
}
