#include "wom/registry.h"

#include <cstdlib>

#include "wom/code_search.h"
#include "wom/encode_lut.h"
#include "wom/identity_code.h"
#include "wom/inverted_code.h"
#include "wom/polar_code.h"
#include "wom/rs_code.h"
#include "wom/sectioned_codec.h"
#include "wom/tabular_code.h"
#include "wom/ts_constrained_code.h"

namespace wompcm {

namespace {

// Parses a decimal number following `prefix` inside `s` at position `pos`.
bool parse_num(const std::string& s, std::size_t* pos, unsigned* out) {
  if (*pos >= s.size() || !isdigit(static_cast<unsigned char>(s[*pos]))) {
    return false;
  }
  unsigned v = 0;
  while (*pos < s.size() && isdigit(static_cast<unsigned char>(s[*pos]))) {
    v = v * 10 + static_cast<unsigned>(s[*pos] - '0');
    ++*pos;
  }
  *out = v;
  return true;
}

WomCodePtr make_base_code(const std::string& name) {
  if (name == "rs23") return std::make_shared<RivestShamirCode>();
  if (name.rfind("identity-k", 0) == 0) {
    std::size_t pos = 10;
    unsigned k = 0;
    if (!parse_num(name, &pos, &k) || pos != name.size()) return nullptr;
    if (k < 1 || k > 16) return nullptr;
    return std::make_shared<IdentityCode>(k);
  }
  if (name.rfind("marker-k", 0) == 0) {
    std::size_t pos = 8;
    unsigned k = 0, t = 0;
    if (!parse_num(name, &pos, &k)) return nullptr;
    if (pos >= name.size() || name[pos] != 't') return nullptr;
    ++pos;
    if (!parse_num(name, &pos, &t) || pos != name.size()) return nullptr;
    if (k < 1 || k > 8 || t < 1 || t > 16) return nullptr;
    return make_marker_code(k, t);
  }
  if (name.rfind("parity-t", 0) == 0) {
    std::size_t pos = 8;
    unsigned t = 0;
    if (!parse_num(name, &pos, &t) || pos != name.size()) return nullptr;
    if (t < 1 || t > 32) return nullptr;
    return make_parity_code(t);
  }
  if (name.rfind("search-k", 0) == 0) {
    // On-demand brute-force construction, e.g. "search-k2n5t3" builds the
    // <2^2>^3/5 code the DFS discovers. Deterministic (the search is), so
    // the name always denotes the same code.
    std::size_t pos = 8;
    CodeSearchParams p;
    if (!parse_num(name, &pos, &p.data_bits)) return nullptr;
    if (pos >= name.size() || name[pos] != 'n') return nullptr;
    ++pos;
    if (!parse_num(name, &pos, &p.wits)) return nullptr;
    if (pos >= name.size() || name[pos] != 't') return nullptr;
    ++pos;
    if (!parse_num(name, &pos, &p.writes) || pos != name.size()) {
      return nullptr;
    }
    const auto found = search_wom_code(p);
    return found ? found->code : nullptr;
  }
  return nullptr;
}

// "polar-m<M>[-inv]": the inversion is native to the block code (a flag,
// not an InvertedCode wrapper) so the streaming encode stays in-place.
WomCodePtr make_polar_code(const std::string& name) {
  std::size_t pos = 7;  // past "polar-m"
  unsigned m = 0;
  if (!parse_num(name, &pos, &m)) return nullptr;
  bool inverted = false;
  if (pos != name.size()) {
    if (name.compare(pos, std::string::npos, "-inv") != 0) return nullptr;
    inverted = true;
  }
  if (m < PolarWomCode::kMinM || m > PolarWomCode::kMaxM) return nullptr;
  return std::make_shared<PolarWomCode>(m, inverted);
}

}  // namespace

WomCodePtr make_code(const std::string& name) {
  if (name.rfind("polar-m", 0) == 0) {
    WomCodePtr polar = make_polar_code(name);
    if (polar == nullptr) return nullptr;
    EncodeLut::for_code(polar);  // always a miss, but keeps the contract
    return polar;
  }
  const bool inverted =
      name.size() > 4 && name.compare(name.size() - 4, 4, "-inv") == 0;
  const std::string base_name =
      inverted ? name.substr(0, name.size() - 4) : name;
  WomCodePtr base = make_base_code(base_name);
  if (base == nullptr) return nullptr;
  WomCodePtr code = inverted ? invert(std::move(base)) : base;
  // Build (or fetch) the shared encode table now, so every PageCodec for
  // this code starts with the memoized hot path already warm.
  EncodeLut::for_code(code);
  return code;
}

BlockCodecPtr make_block_codec(const std::string& name) {
  if (name.rfind("tsc-", 0) == 0) {
    // "tsc-<base>x<R>[-inv]": the trailing "-inv" belongs to the base.
    std::string rest = name.substr(4);
    std::string suffix;
    if (rest.size() > 4 &&
        rest.compare(rest.size() - 4, 4, "-inv") == 0) {
      suffix = "-inv";
      rest.resize(rest.size() - 4);
    }
    const std::size_t x = rest.rfind('x');
    if (x == std::string::npos || x == 0) return nullptr;
    std::size_t pos = x + 1;
    unsigned replicas = 0;
    if (!parse_num(rest, &pos, &replicas) || pos != rest.size()) {
      return nullptr;
    }
    if (replicas < TsConstrainedCodec::kMinReplicas ||
        replicas > TsConstrainedCodec::kMaxReplicas) {
      return nullptr;
    }
    WomCodePtr base = make_code(rest.substr(0, x) + suffix);
    if (base == nullptr) return nullptr;
    return std::make_unique<TsConstrainedCodec>(std::move(base), replicas);
  }
  WomCodePtr code = make_code(name);
  if (code == nullptr) return nullptr;
  return std::make_unique<SectionedCodec>(std::move(code));
}

CodeInfo code_info(const std::string& name) {
  CodeInfo info;
  const BlockCodecPtr codec = make_block_codec(name);
  if (codec == nullptr) return info;
  info.valid = true;
  info.name = codec->name();
  info.data_bits = codec->section_data_bits();
  info.wits = codec->section_wits();
  info.max_writes = codec->max_writes();
  info.overhead = codec->overhead();
  info.wear_bound = codec->wear_bound();
  info.wear_divisor = codec->wear_divisor();
  info.lut = codec->lut_backed();
  info.inverted = !codec->raises_bits();
  return info;
}

std::vector<std::string> known_code_names() {
  return {"rs23",        "rs23-inv",        "identity-k2", "identity-k4",
          "marker-k2t2", "marker-k2t4-inv", "parity-t3",   "parity-t4-inv",
          "polar-m5",    "polar-m7-inv"};
}

std::vector<std::string> known_block_codec_names() {
  std::vector<std::string> names = known_code_names();
  names.push_back("tsc-rs23x4-inv");
  names.push_back("tsc-marker-k2t4x2-inv");
  return names;
}

}  // namespace wompcm
