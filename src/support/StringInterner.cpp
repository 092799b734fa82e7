//===- StringInterner.cpp - String interning ------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/support/StringInterner.h"

#include <cassert>

using namespace memlook;

Symbol StringInterner::intern(std::string_view Text) {
  auto It = Index.find(Text);
  if (It != Index.end())
    return It->second;

  Spellings.emplace_back(Text);
  Symbol Sym(static_cast<uint32_t>(Spellings.size() - 1));
  Index.emplace(std::string_view(Spellings.back()), Sym);
  return Sym;
}

StringInterner StringInterner::clone() const {
  StringInterner Copy;
  Copy.Spellings = Spellings;
  Copy.Index.reserve(Spellings.size());
  uint32_t Raw = 0;
  for (const std::string &S : Copy.Spellings)
    Copy.Index.emplace(std::string_view(S), Symbol(Raw++));
  return Copy;
}

Symbol StringInterner::find(std::string_view Text) const {
  auto It = Index.find(Text);
  return It == Index.end() ? Symbol() : It->second;
}

std::string_view StringInterner::spelling(Symbol Sym) const {
  assert(Sym.isValid() && Sym.index() < Spellings.size() &&
         "symbol does not belong to this interner");
  return Spellings[Sym.index()];
}
