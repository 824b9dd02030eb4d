#include "swarm/state.hpp"

#include <algorithm>

#include "live/shard_map.hpp"

namespace mci::swarm {

void SwarmState::configure(std::uint32_t numClients, std::uint32_t numShards,
                           std::uint32_t databaseSize,
                           std::uint32_t cacheCapacity, std::uint64_t seed) {
  MCI_CHECK(numClients >= 1);
  MCI_CHECK(numShards >= 1 && numShards <= 32)
      << "swarm needAnswer mask holds at most 32 shards";
  MCI_CHECK(databaseSize >= 1);
  clients = numClients;
  shards = numShards;
  dbSize = databaseSize;

  const std::size_t nc = clients;
  state.assign(nc, ClientState::kThinking);
  thinkDeadline.assign(nc, 0.0);
  dozeEnd.assign(nc, 0.0);
  queryAfterWake.assign(nc, false);
  queryItems.assign(nc * kMaxQueryItems, db::kInvalidItem);
  queryCount.assign(nc, 0);
  needAnswer.assign(nc, 0);
  queryStart.assign(nc, 0.0);

  rngQuery.clear();
  rngDisc.clear();
  rngQuery.reserve(nc);
  rngDisc.reserve(nc);
  const sim::Rng root(seed);
  for (std::uint32_t c = 0; c < clients; ++c) {
    rngQuery.push_back(root.fork("query", c));
    rngDisc.push_back(root.fork("disc", c));
  }

  presenceEnabled =
      static_cast<std::uint64_t>(clients) * dbSize <= kMaxPresenceBits;
  layoutPartitions(cacheCapacity);
}

void SwarmState::layoutPartitions(std::uint32_t cacheCapacity) {
  shardSlotOff.assign(shards + 1, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint32_t share = live::cacheShare(cacheCapacity, shards, s);
    MCI_CHECK(share <= 0xFFFF) << "per-shard cache share exceeds uint16";
    shardSlotOff[s + 1] = shardSlotOff[s] + share;
  }
  slotsPerClient = shardSlotOff[shards];

  const std::size_t ncs = static_cast<std::size_t>(clients) * shards;
  const std::size_t nslots = static_cast<std::size_t>(clients) * slotsPerClient;
  slotItem.assign(nslots, kEmptySlot);
  slotRef.assign(nslots, 0);
  slotVersion.assign(nslots, 0);
  slotSuspect.assign(nslots, false);
  slotUsed.assign(nslots, false);
  presence.assign(
      presenceEnabled ? static_cast<std::uint64_t>(clients) * dbSize : 0,
      false);

  clockHand.assign(ncs, 0);
  occupancy.assign(ncs, 0);
  suspectCount.assign(ncs, 0);
  lastHeard.assign(ncs, 0);  // tick 0 == sim::kTimeEpoch
  suspectAsOf.assign(ncs, 0);
  checkDeliveredAt.assign(ncs, kNeverTick);
  salvagePending.assign(ncs, false);
  checkSent.assign(ncs, false);
}

void SwarmState::resizeShards(
    std::uint32_t numShards, std::uint32_t cacheCapacity,
    const std::function<std::uint32_t(db::ItemId)>& ownerOf) {
  MCI_CHECK(numShards >= 1 && numShards <= 32)
      << "swarm needAnswer mask holds at most 32 shards";
  const std::uint32_t oldShards = shards;
  const std::uint32_t oldSlots = slotsPerClient;
  std::vector<db::ItemId> oldItem = std::move(slotItem);
  std::vector<Tick> oldRef = std::move(slotRef);
  std::vector<db::Version> oldVersion = std::move(slotVersion);
  std::vector<Tick> oldLastHeard = std::move(lastHeard);

  shards = numShards;
  layoutPartitions(cacheCapacity);

  const std::uint32_t survivors = std::min(oldShards, shards);
  for (std::uint32_t c = 0; c < clients; ++c) {
    for (std::uint32_t s = 0; s < survivors; ++s) {
      lastHeard[cs(c, s)] =
          oldLastHeard[static_cast<std::size_t>(c) * oldShards + s];
    }
    const std::size_t base = static_cast<std::size_t>(c) * oldSlots;
    for (std::uint32_t slot = 0; slot < oldSlots; ++slot) {
      const db::ItemId item = oldItem[base + slot];
      if (item == kEmptySlot) continue;
      insert(c, ownerOf(item), item, oldRef[base + slot],
             oldVersion[base + slot]);
    }
  }
}

int SwarmState::findSlot(std::uint32_t c, std::uint32_t s,
                         db::ItemId item) const {
  if (presenceEnabled && !presence.get(presenceIndex(c, item))) return -1;
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t base = slotIndex(c, 0);
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    if (slotItem[base + slot] == item) return static_cast<int>(slot);
  }
  return -1;
}

void SwarmState::insert(std::uint32_t c, std::uint32_t s, db::ItemId item,
                        Tick ref, db::Version version) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t csIdx = cs(c, s);

  int slot = findSlot(c, s, item);
  if (slot < 0) {
    if (occupancy[csIdx] < hi - lo) {
      // Free slot exists; take the first one.
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (slotItem[base + i] == kEmptySlot) {
          slot = static_cast<int>(i);
          break;
        }
      }
      MCI_CHECK(slot >= 0) << "occupancy disagrees with slot scan";
      ++occupancy[csIdx];
    } else {
      // CLOCK eviction: sweep from the hand clearing used bits until an
      // unused slot is found. Bounded by 2 * share iterations.
      const std::uint32_t share = hi - lo;
      std::uint32_t hand = clockHand[csIdx];
      for (std::uint32_t step = 0; step < 2 * share; ++step) {
        const std::size_t idx = base + lo + hand;
        if (!slotUsed.get(idx)) {
          slot = static_cast<int>(lo + hand);
          break;
        }
        slotUsed.clear(idx);
        hand = hand + 1 == share ? 0 : hand + 1;
      }
      if (slot < 0) slot = static_cast<int>(lo + hand);  // all used: evict
      clockHand[csIdx] =
          static_cast<std::uint16_t>((static_cast<std::uint32_t>(slot) - lo +
                                      1) %
                                     share);
      const std::size_t victimIdx = base + static_cast<std::uint32_t>(slot);
      const db::ItemId victim = slotItem[victimIdx];
      if (presenceEnabled && victim != kEmptySlot) {
        presence.clear(presenceIndex(c, victim));
      }
      if (slotSuspect.get(victimIdx)) {
        slotSuspect.clear(victimIdx);
        --suspectCount[csIdx];
      }
    }
  }

  const std::size_t idx = base + static_cast<std::uint32_t>(slot);
  if (slotSuspect.get(idx)) {
    slotSuspect.clear(idx);
    --suspectCount[csIdx];
  }
  slotItem[idx] = item;
  slotRef[idx] = ref;
  slotVersion[idx] = version;
  slotUsed.set(idx);
  if (presenceEnabled) presence.set(presenceIndex(c, item));
}

void SwarmPartition::freeSlot(std::size_t idx) {
  if (st_.presenceEnabled) {
    st_.presence.clear(st_.presenceIndex(c_, st_.slotItem[idx]));
  }
  st_.slotItem[idx] = SwarmState::kEmptySlot;
  st_.slotUsed.clear(idx);
  st_.slotSuspect.clear(idx);
  --st_.occupancy[idx_];
}

void SwarmPartition::invalidate(Slot h) {
  const std::size_t idx =
      st_.slotIndex(c_, static_cast<std::uint32_t>(h.index));
  if (st_.slotItem[idx] == SwarmState::kEmptySlot) return;
  if (st_.slotSuspect.get(idx)) --st_.suspectCount[idx_];
  freeSlot(idx);
}

std::uint32_t SwarmPartition::markAllSuspect(Tick preGapTlb) {
  st_.suspectAsOf[idx_] = preGapTlb;
  const std::size_t base = st_.slotIndex(c_, 0);
  std::uint32_t marked = 0;
  for (std::uint32_t slot = st_.shardSlotOff[s_];
       slot < st_.shardSlotOff[s_ + 1]; ++slot) {
    const std::size_t idx = base + slot;
    if (st_.slotItem[idx] == SwarmState::kEmptySlot ||
        st_.slotSuspect.get(idx)) {
      continue;
    }
    st_.slotSuspect.set(idx);
    ++marked;
  }
  st_.suspectCount[idx_] =
      static_cast<std::uint16_t>(st_.suspectCount[idx_] + marked);
  return st_.suspectCount[idx_];
}

void SwarmPartition::salvageAllSuspects(Tick refTime) {
  if (st_.suspectCount[idx_] == 0) return;
  const std::size_t base = st_.slotIndex(c_, 0);
  for (std::uint32_t slot = st_.shardSlotOff[s_];
       slot < st_.shardSlotOff[s_ + 1]; ++slot) {
    const std::size_t idx = base + slot;
    if (!st_.slotSuspect.get(idx)) continue;
    st_.slotSuspect.clear(idx);
    st_.slotRef[idx] = refTime;
  }
  st_.suspectCount[idx_] = 0;
}

void SwarmPartition::dropSuspects() {
  if (st_.suspectCount[idx_] == 0) return;
  const std::size_t base = st_.slotIndex(c_, 0);
  for (std::uint32_t slot = st_.shardSlotOff[s_];
       slot < st_.shardSlotOff[s_ + 1]; ++slot) {
    if (st_.slotSuspect.get(base + slot)) freeSlot(base + slot);
  }
  st_.suspectCount[idx_] = 0;
}

void SwarmPartition::dropAll() {
  const std::size_t base = st_.slotIndex(c_, 0);
  for (std::uint32_t slot = st_.shardSlotOff[s_];
       slot < st_.shardSlotOff[s_ + 1]; ++slot) {
    if (st_.slotItem[base + slot] != SwarmState::kEmptySlot) {
      freeSlot(base + slot);
    }
  }
  st_.suspectCount[idx_] = 0;
}

std::size_t SwarmState::memoryBytes() const {
  std::size_t bytes = 0;
  bytes += state.capacity() * sizeof(ClientState);
  bytes += thinkDeadline.capacity() * sizeof(double);
  bytes += dozeEnd.capacity() * sizeof(double);
  bytes += rngQuery.capacity() * sizeof(sim::Rng);
  bytes += rngDisc.capacity() * sizeof(sim::Rng);
  bytes += queryItems.capacity() * sizeof(db::ItemId);
  bytes += queryCount.capacity();
  bytes += needAnswer.capacity() * sizeof(std::uint32_t);
  bytes += queryStart.capacity() * sizeof(double);
  bytes += slotItem.capacity() * sizeof(db::ItemId);
  bytes += slotRef.capacity() * sizeof(Tick);
  bytes += slotVersion.capacity() * sizeof(db::Version);
  bytes += clockHand.capacity() * sizeof(std::uint16_t);
  bytes += occupancy.capacity() * sizeof(std::uint16_t);
  bytes += suspectCount.capacity() * sizeof(std::uint16_t);
  bytes += lastHeard.capacity() * sizeof(Tick);
  bytes += suspectAsOf.capacity() * sizeof(Tick);
  bytes += checkDeliveredAt.capacity() * sizeof(Tick);
  bytes += queryAfterWake.memoryBytes() + slotSuspect.memoryBytes() +
           slotUsed.memoryBytes() + presence.memoryBytes() +
           salvagePending.memoryBytes() + checkSent.memoryBytes();
  return bytes;
}

}  // namespace mci::swarm
