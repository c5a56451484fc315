#ifndef SSTREAMING_COMMON_KEY_INDEX_H_
#define SSTREAMING_COMMON_KEY_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sstreaming {

/// The engine's one open-addressing key index (docs/DESIGN.md §9). It maps
/// a key to a position in a key store its caller owns: the state table's
/// slab of encoded keys, the memory sink's typed update columns. The index
/// never sees a key: a slot is a word (32-bit tag << 32) | (position + 1),
/// 0 when empty, the tag being the top half of the key's 64-bit hash.
/// Probes are linear from the Fibonacci home of the tag, at a load factor
/// of at most 3/4, and ask the caller's `eq(position)` whether a position
/// holds the probed key only on a tag match. Growth rehashes from the tags
/// alone; erasure shifts the rest of the cluster back, so there are no
/// tombstones.
class KeyIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  size_t size() const { return size_; }
  size_t capacity() const { return words_.size(); }  // 0 or a power of two
  /// The slot a probe for `hash` starts at; needs capacity() > 0.
  size_t Home(uint64_t hash) const {
    return static_cast<uint32_t>(Tag(hash) * 0x9E3779B9u) >> shift_;
  }

  /// Makes room for `n` more positions, so no growth happens in between.
  void Reserve(size_t n = 1) {
    if ((size_ + n) * 4 <= words_.size() * 3) return;
    size_t cap = std::max<size_t>(16, words_.size());
    while ((size_ + n) * 4 > cap * 3) cap *= 2;
    const std::vector<uint64_t> old =
        std::exchange(words_, std::vector<uint64_t>(cap, 0));
    shift_ = 32 - static_cast<uint32_t>(std::countr_zero(cap));
    for (uint64_t word : old) {
      if (word == 0) continue;
      size_t i = Home(word);
      while (words_[i] != 0) i = Next(i);
      words_[i] = word;
    }
  }

  /// The position of the key whose hash is `hash` and for which
  /// `eq(position)` holds, or kAbsent. `*slot` becomes its slot, or the
  /// empty slot Insert fills (Reserve before such a probe).
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq, size_t* slot) const {
    *slot = 0;
    if (words_.empty()) return kAbsent;
    for (size_t i = Home(hash);; i = Next(i)) {
      const uint64_t word = words_[i];
      if (word == 0 || (Tag(word) == Tag(hash) && eq(Pos(word)))) {
        *slot = i;
        return word == 0 ? kAbsent : Pos(word);
      }
    }
  }

  /// Indexes `position` at the empty `slot` a Find for its key returned.
  void Insert(size_t slot, uint64_t hash, uint32_t position) {
    words_[slot] = (hash >> 32 << 32) | (position + 1);
    ++size_;
  }

  /// Empties `hole`, a slot Find returned for an indexed key. Backward
  /// shift: each later member of the cluster moves into the hole when the
  /// hole lies between its home and its slot.
  void Erase(size_t hole) {
    const size_t mask = words_.size() - 1;
    for (size_t j = Next(hole); words_[j] != 0; j = Next(j)) {
      if (((j - Home(words_[j])) & mask) >= ((j - hole) & mask)) {
        words_[hole] = words_[j];
        hole = j;
      }
    }
    words_[hole] = 0;
    --size_;
  }

  /// Cache hints, issued a fixed distance ahead of a probe for `hash`:
  /// PrefetchHome loads the home word; PrefetchMatch, once that word is
  /// cached, hands the first tag match's position to `prefetch`.
  void PrefetchHome(uint64_t hash) const {
    if (!words_.empty()) __builtin_prefetch(&words_[Home(hash)]);
  }
  template <typename Prefetch>
  void PrefetchMatch(uint64_t hash, const Prefetch& prefetch) const {
    if (words_.empty()) return;
    for (size_t i = Home(hash); words_[i] != 0; i = Next(i)) {
      if (Tag(words_[i]) == Tag(hash)) {
        const uint32_t position = Pos(words_[i]);
        // GCC's dead-code pass counts a prefetch as no effect and deletes
        // this whole probe once inlined; the empty asm keeps it.
        asm volatile("" : : "r"(position));
        prefetch(position);
        return;
      }
    }
  }

 private:
  // The tag of a hash, or of an index word (both keep it in the top half).
  static uint32_t Tag(uint64_t v) { return static_cast<uint32_t>(v >> 32); }
  static uint32_t Pos(uint64_t word) {
    return static_cast<uint32_t>(word) - 1;
  }
  size_t Next(size_t i) const { return (i + 1) & (words_.size() - 1); }

  std::vector<uint64_t> words_;
  uint32_t shift_ = 32;  // 32 - log2(capacity())
  size_t size_ = 0;
};

}  // namespace sstreaming

#endif  // SSTREAMING_COMMON_KEY_INDEX_H_
