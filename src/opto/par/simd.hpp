// Compatibility shim for the benchmark driver (perfbench/optobench), which
// still records a `simd_level` field in its reference output. The engine
// has a single scalar attempt loop (DESIGN.md §9), so the level is always
// "scalar". Nothing else includes this header; delete it together with
// the benchmark's `simd_level` field.
#pragma once

namespace opto::simd {

inline int active_level() { return 0; }

inline const char* level_name(int /*level*/) { return "scalar"; }

}  // namespace opto::simd
