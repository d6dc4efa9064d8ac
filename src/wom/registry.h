// Name-based WOM-code factory for CLI tools, examples, and benches.
//
// Recognized symbol-code names:
//   rs23               the <2^2>^2/3 Rivest-Shamir code (Table 1)
//   identity-k<K>      K data bits, 1 write (no WOM)
//   marker-k<K>t<T>    the marker-group family, K bits, T writes
//   parity-t<T>        the parity family, 1 bit, T writes
//   search-k<K>n<N>t<T> brute-force-discovered code with those parameters
//   polar-m<M>         polar-kernel WOM block code, n = 2^M cells, M+1 bits
// Any name may carry an "-inv" suffix to get the PCM-friendly inverted
// variant (e.g. "rs23-inv"), which is what the architectures use.
//
// Block-codec names cover every symbol code above (wrapped in a
// SectionedCodec) plus the native sectioned families:
//   tsc-<base>x<R>     time-space constrained: R replicas of <base>, e.g.
//                      "tsc-rs23x4-inv" = 4 rotating copies of rs23-inv
#pragma once

#include <string>
#include <vector>

#include "wom/block_codec.h"
#include "wom/wom_code.h"

namespace wompcm {

// Returns the named code, or nullptr if the name is not recognized.
WomCodePtr make_code(const std::string& name);

// Returns the named block codec — any make_code() name (sectioned) or a
// native block-codec name such as "tsc-rs23x4-inv" — or nullptr.
BlockCodecPtr make_block_codec(const std::string& name);

// Parameter sheet of a registered code, for discovery surfaces
// (womd --list-codes) and config validation.
struct CodeInfo {
  bool valid = false;
  std::string name;
  unsigned data_bits = 0;   // k per section
  unsigned wits = 0;        // n per section
  unsigned max_writes = 0;  // t
  double overhead = 0.0;    // n/k - 1
  double wear_bound = 1.0;  // fraction of cells an in-budget write may touch
  unsigned wear_divisor = 1;  // 1 / wear_bound
  bool lut = false;         // dense EncodeLut fast path available
  bool inverted = false;    // writes lower bits (RESET-only rewrites)
};

// Info for any make_block_codec() name; .valid is false for unknown names.
CodeInfo code_info(const std::string& name);

// Names with one representative parameterization each, for enumeration in
// tests and help text. known_code_names() lists symbol codes only;
// known_block_codec_names() adds the native sectioned families.
std::vector<std::string> known_code_names();
std::vector<std::string> known_block_codec_names();

}  // namespace wompcm
