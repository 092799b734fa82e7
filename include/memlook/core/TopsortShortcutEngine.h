//===- memlook/core/TopsortShortcutEngine.h - Section 7.2 -------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.2's observation: *if* a lookup is known to be unambiguous
/// (the assumption the Attali et al. Eiffel algorithm makes), it reduces
/// to "among the classes declaring m that are bases of C (or C itself),
/// pick the one with the maximum topological number". Most of the
/// paper's machinery exists precisely to detect ambiguity; this engine
/// is the measuring stick for how much that detection costs.
///
/// The engine is deliberately unsound on ambiguous programs: it returns
/// *an* answer, never Ambiguous. Tests only compare it against the real
/// engines on ambiguity-free hierarchies, and bench_baselines uses it as
/// the lower-bound competitor.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CORE_TOPSORTSHORTCUTENGINE_H
#define MEMLOOK_CORE_TOPSORTSHORTCUTENGINE_H

#include "memlook/core/LookupEngine.h"

namespace memlook {

/// Maximum-topological-number lookup; valid only on ambiguity-free
/// programs.
class TopsortShortcutEngine : public LookupEngine {
public:
  explicit TopsortShortcutEngine(const Hierarchy &H) : LookupEngine(H) {}

  LookupResult lookup(ClassId Context, Symbol Member) override;
  using LookupEngine::lookup;

  std::string_view engineName() const override { return "topsort-shortcut"; }
};

} // namespace memlook

#endif // MEMLOOK_CORE_TOPSORTSHORTCUTENGINE_H
