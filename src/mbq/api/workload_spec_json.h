#pragma once
// JSON text codec for WorkloadSpec — the human-readable sibling of the
// binary codec in api/workload_spec.h, so non-C++ clients (and the
// future HTTP edge) can author workloads as text.
//
// Exactness contract, mirroring the binary codec's: parse(emit(spec))
// reproduces spec bit-exactly.  Finite reals are emitted with 17
// significant digits (every finite double round-trips through that text
// bit-exactly, including -0.0); non-finite values are emitted as IEEE-754
// bit-pattern strings ("0x7ff0000000000000").  On input, every real
// accepts either form — a JSON number or a "0x<16 hex digits>" bit
// string — so hand-authored text stays natural while machine-generated
// text can be bit-precise.  Emission is canonical (fixed field order,
// fixed formatting): JSON -> binary -> JSON is byte-stable.
//
// The parser is the same strict recursive-descent discipline as
// bench/report.cpp: no dependency, malformed input throws Error with a
// byte offset, trailing garbage rejected, unknown ansatz/gate/source
// names rejected with the known-name listing.  CustomCircuit specs do
// not serialize here either.

#include <string>

#include "mbq/api/workload_spec.h"

namespace mbq::api {

/// Canonical JSON text for a serializable spec (ends with '\n').
/// Throws Error for CustomCircuit specs.
std::string spec_to_json(const api::WorkloadSpec& spec);

/// Parse and validate; throws Error on malformed JSON, unknown fields'
/// values, or an inconsistent spec.  The result satisfies
/// spec_to_json(spec_from_json(text)) == spec_to_json-canonical form and
/// round-trips the binary codec bit-exactly.
api::WorkloadSpec spec_from_json(const std::string& text);

}  // namespace mbq::api
