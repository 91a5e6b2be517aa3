//! Wire-level model of the SDIMM secure buffer and the CPU-side
//! controller speaking to it (§III-A/III-B/III-F).
//!
//! Where [`crate::independent`] models the Independent protocol at the
//! functional + timing level, this module runs it **message by message**:
//! every command is one of the Table I encodings, every payload is a
//! counter-mode-encrypted, MACed [`SealedMessage`] produced by the
//! session layer, and the secure buffer executes its `accessORAM`s on a
//! real local [`PathOram`]. It exists to demonstrate (and test) that the
//! pieces actually compose: boot-time authentication, encrypted
//! bidirectional transfer, PROBE/FETCH_RESULT polling, APPEND fan-out
//! with dummies, and that a bus sniffer sees nothing but ciphertext.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oram::path_oram::PathOram;
use oram::types::{BlockId, Leaf, Op, OramConfig};
use sdimm_crypto::session::{handshake, DeviceId, SealedMessage, SessionEndpoint};
use sdimm_crypto::{CryptoError, Result};

use crate::commands::SdimmCommand;
use crate::independent::IndependentConfig;
use crate::transfer_queue::TransferQueue;

/// Payload of an `ACCESS` command: the request plus one block of data
/// (a dummy on reads, so reads and writes are indistinguishable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRequest {
    /// Target block.
    pub id: BlockId,
    /// The block's current leaf, local to the target SDIMM's subtree.
    pub local_leaf: Leaf,
    /// Read or write.
    pub op: Op,
    /// Write payload (dummy bytes on reads).
    pub data: [u8; 64],
}

impl AccessRequest {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(1 + 8 + 8 + 1 + 64);
        b.put_u8(SdimmCommand::Access.payload_tag());
        b.put_u64_le(self.id.0);
        b.put_u64_le(self.local_leaf.0);
        b.put_u8(match self.op {
            Op::Read => 0,
            Op::Write => 1,
        });
        b.put_slice(&self.data);
        b.freeze()
    }

    fn decode(mut b: Bytes) -> Result<Self> {
        if b.len() != 82 || b[0] != SdimmCommand::Access.payload_tag() {
            return Err(CryptoError::Handshake("malformed ACCESS payload"));
        }
        b.advance(1);
        let id = BlockId(b.get_u64_le());
        let local_leaf = Leaf(b.get_u64_le());
        let op = if b.get_u8() == 1 { Op::Write } else { Op::Read };
        let mut data = [0u8; 64];
        data.copy_from_slice(&b[..64]);
        Ok(AccessRequest { id, local_leaf, op, data })
    }
}

/// Payload of a `FETCH_RESULT` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// The freshly assigned *global* leaf for the block.
    pub new_global_leaf: Leaf,
    /// The block's contents (or a dummy, for writes that stayed local).
    pub data: [u8; 64],
}

impl AccessResult {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(1 + 8 + 64);
        b.put_u8(SdimmCommand::FetchResult.payload_tag());
        b.put_u64_le(self.new_global_leaf.0);
        b.put_slice(&self.data);
        b.freeze()
    }

    fn decode(mut b: Bytes) -> Result<Self> {
        if b.len() != 73 || b[0] != SdimmCommand::FetchResult.payload_tag() {
            return Err(CryptoError::Handshake("malformed RESULT payload"));
        }
        b.advance(1);
        let new_global_leaf = Leaf(b.get_u64_le());
        let mut data = [0u8; 64];
        data.copy_from_slice(&b[..64]);
        Ok(AccessResult { new_global_leaf, data })
    }
}

/// Payload of an `APPEND` command (real block or dummy — same size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendMessage {
    /// True when this APPEND carries the real migrating block.
    pub real: bool,
    /// Block id (garbage on dummies).
    pub id: BlockId,
    /// The block's new local leaf (garbage on dummies).
    pub local_leaf: Leaf,
    /// Block contents (garbage on dummies).
    pub data: [u8; 64],
}

impl AppendMessage {
    fn dummy(rng: &mut StdRng) -> Self {
        let mut data = [0u8; 64];
        rng.fill(&mut data);
        AppendMessage { real: false, id: BlockId(rng.gen()), local_leaf: Leaf(rng.gen()), data }
    }

    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(1 + 1 + 8 + 8 + 64);
        b.put_u8(SdimmCommand::Append.payload_tag());
        b.put_u8(self.real as u8);
        b.put_u64_le(self.id.0);
        b.put_u64_le(self.local_leaf.0);
        b.put_slice(&self.data);
        b.freeze()
    }

    fn decode(mut b: Bytes) -> Result<Self> {
        if b.len() != 82 || b[0] != SdimmCommand::Append.payload_tag() {
            return Err(CryptoError::Handshake("malformed APPEND payload"));
        }
        b.advance(1);
        let real = b.get_u8() == 1;
        let id = BlockId(b.get_u64_le());
        let local_leaf = Leaf(b.get_u64_le());
        let mut data = [0u8; 64];
        data.copy_from_slice(&b[..64]);
        Ok(AppendMessage { real, id, local_leaf, data })
    }
}

/// One SDIMM's secure buffer: session endpoint, local subtree ORAM, and
/// transfer queue, processing Table I commands.
#[derive(Debug)]
pub struct SecureBuffer {
    index: usize,
    sdimms: usize,
    session: SessionEndpoint,
    oram: PathOram,
    queue: TransferQueue,
    rng: StdRng,
    /// A completed result waiting for the CPU's PROBE / FETCH_RESULT.
    pending: Option<AccessResult>,
}

impl SecureBuffer {
    /// Local leaves per subtree.
    fn local_leaves(&self) -> u64 {
        self.oram.config().leaf_count()
    }

    /// Whether a response is ready (the `PROBE` command).
    pub fn probe(&self) -> bool {
        self.pending.is_some()
    }

    /// Handles an `ACCESS` command: decrypts, runs the local
    /// `accessORAM`, assigns a fresh global leaf, and parks the response
    /// for `FETCH_RESULT`. Returns the block (if it must migrate) for the
    /// test harness to cross-check — on real hardware it stays inside
    /// until the CPU appends it elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates session/MAC failures and malformed payloads.
    pub fn handle_access(&mut self, wire: &SealedMessage) -> Result<()> {
        let plain = self.session.open(wire)?;
        let req = AccessRequest::decode(Bytes::from(plain))?;

        let global_leaves = self.local_leaves() * self.sdimms as u64;
        let new_global = Leaf(self.rng.gen_range(0..global_leaves));
        let dest = (new_global.0 / self.local_leaves()) as usize;
        let keep_local = dest == self.index;
        let local_new = Leaf(new_global.0 % self.local_leaves());

        let write_data = (req.op == Op::Write).then_some(&req.data[..]);
        let (data, moved, _plan) =
            self.oram.access_with_remap(req.id, req.op, write_data, local_new, keep_local);
        if moved.is_some() {
            self.queue.vacancy();
        }
        // The result block: real contents unless a write stayed local, in
        // which case a dummy goes back (step 5 of §III-C).
        let mut out = [0u8; 64];
        if !(req.op == Op::Write && keep_local) {
            let n = data.len().min(64);
            out[..n].copy_from_slice(&data[..n]);
        } else {
            self.rng.fill(&mut out);
        }
        // The migrating block's bytes ride inside the result; the CPU
        // re-encrypts them into the APPEND for the destination.
        self.pending = Some(AccessResult { new_global_leaf: new_global, data: out });
        Ok(())
    }

    /// Handles `FETCH_RESULT`: seals and returns the parked response.
    ///
    /// # Errors
    ///
    /// Returns a handshake error if no response is pending (the CPU must
    /// PROBE first).
    pub fn handle_fetch_result(&mut self) -> Result<SealedMessage> {
        let res = self.pending.take().ok_or(CryptoError::Handshake("no pending result"))?;
        Ok(self.session.seal(&res.encode()))
    }

    /// Handles an `APPEND`: decrypts and, if real, admits the block into
    /// the local stash via the transfer queue; dummies are discarded.
    /// Occasionally spends a forced-drain `accessORAM`.
    ///
    /// # Errors
    ///
    /// Propagates session/MAC failures and malformed payloads.
    pub fn handle_append(&mut self, wire: &SealedMessage) -> Result<()> {
        let plain = self.session.open(wire)?;
        let msg = AppendMessage::decode(Bytes::from(plain))?;
        if msg.real {
            self.queue.arrive();
            self.oram.append(oram::bucket::BlockEntry {
                id: msg.id,
                leaf: msg.local_leaf,
                data: msg.data.to_vec(),
            });
        }
        if self.queue.maybe_force_drain(&mut self.rng) {
            self.oram.background_evict();
        }
        Ok(())
    }

    /// Test/verification hook: the local ORAM invariant.
    pub fn check_invariant(&self) {
        self.oram.check_invariant();
    }
}

/// The CPU-side controller: per-SDIMM sessions, the global position map,
/// and the command choreography of the Independent protocol.
#[derive(Debug)]
pub struct CpuController {
    sessions: Vec<SessionEndpoint>,
    posmap: Vec<Leaf>,
    local_leaves: u64,
    rng: StdRng,
    /// Count of PROBE polls issued (each is a short command on the bus).
    pub probes: u64,
}

/// A wire-level Independent system: the CPU controller plus its buffers.
///
/// # Example
///
/// ```
/// use sdimm::buffer::WireSystem;
/// use oram::types::{BlockId, Op, OramConfig};
///
/// let tree = OramConfig { levels: 8, ..OramConfig::tiny() };
/// let mut sys = WireSystem::boot(2, &tree, 128, 7);
/// sys.access(BlockId(5), Op::Write, Some(*b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))?;
/// let data = sys.access(BlockId(5), Op::Read, None)?;
/// assert_eq!(&data[..16], b"0123456789abcdef");
/// # Ok::<(), sdimm_crypto::CryptoError>(())
/// ```
#[derive(Debug)]
pub struct WireSystem {
    cpu: CpuController,
    buffers: Vec<SecureBuffer>,
}

impl WireSystem {
    /// Boot-time bring-up: authenticate every buffer (`SEND_PKEY` /
    /// `RECEIVE_SECRET` modeled by the handshake), create subtree ORAMs,
    /// and initialize the global position map. Each SDIMM holds the
    /// subtree the router gives a one-SDIMM group.
    pub fn boot(sdimms: usize, global: &OramConfig, blocks: u64, seed: u64) -> Self {
        let subtree = IndependentConfig::new(sdimms, 1, global).subtree().clone();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut sessions = Vec::with_capacity(sdimms);
        let mut buffers = Vec::with_capacity(sdimms);
        for i in 0..sdimms {
            // SEND_PKEY: learn the device identity; RECEIVE_SECRET:
            // deliver the session secret. Modeled by the shared handshake.
            let device = DeviceId([i as u8 + 1; 16]);
            let nonce: [u8; 16] = rng.gen();
            let secret: [u8; 16] = rng.gen();
            let (cpu_end, buf_end) = handshake(device, nonce, secret);
            sessions.push(cpu_end);
            let mut oram = PathOram::with_id_space(
                subtree.clone(),
                blocks,
                (blocks / sdimms as u64 + 1) * 2,
                seed ^ (0xB0F + i as u64),
            );
            // Buckets at rest in DRAM are sealed under a tree key the
            // buffer derives from its boot secret, so every wire access
            // also exercises the batched bucket seal/open path.
            let mut tree_key = secret;
            tree_key[15] ^= 0xA5;
            oram.enable_sealing(tree_key);
            buffers.push(SecureBuffer {
                index: i,
                sdimms,
                session: buf_end,
                oram,
                queue: TransferQueue::paper_default(),
                rng: StdRng::seed_from_u64(seed ^ (0xFEED + i as u64)),
                pending: None,
            });
        }
        let local_leaves = subtree.leaf_count();
        let global_leaves = local_leaves * sdimms as u64;
        let posmap = (0..blocks).map(|_| Leaf(rng.gen_range(0..global_leaves))).collect();
        WireSystem {
            cpu: CpuController { sessions, posmap, local_leaves, rng, probes: 0 },
            buffers,
        }
    }

    /// Number of SDIMMs.
    pub fn sdimms(&self) -> usize {
        self.buffers.len()
    }

    /// PROBE polls issued so far.
    pub fn probes(&self) -> u64 {
        self.cpu.probes
    }

    /// One full `accessORAM` over the wire: ACCESS → PROBE →
    /// FETCH_RESULT → APPEND×N, all as sealed messages.
    ///
    /// # Errors
    ///
    /// Propagates any session/MAC/decode failure — none should occur in
    /// an untampered run.
    pub fn access(&mut self, id: BlockId, op: Op, data: Option<[u8; 64]>) -> Result<[u8; 64]> {
        let global_old = self.cpu.posmap[id.0 as usize];
        let home = (global_old.0 / self.cpu.local_leaves) as usize;
        let local_old = Leaf(global_old.0 % self.cpu.local_leaves);

        // ACCESS (long): request + one block (dummy on reads).
        let payload = data.unwrap_or_else(|| {
            let mut d = [0u8; 64];
            self.cpu.rng.fill(&mut d);
            d
        });
        let req = AccessRequest { id, local_leaf: local_old, op, data: payload };
        let wire = self.cpu.sessions[home].seal(&req.encode());
        self.buffers[home].handle_access(&wire)?;

        // PROBE (short) until ready — immediate here, but counted.
        self.cpu.probes += 1;
        assert!(self.buffers[home].probe(), "buffer executes synchronously");

        // FETCH_RESULT (short read + one block upstream).
        let wire = self.buffers[home].handle_fetch_result()?;
        let result = AccessResult::decode(Bytes::from(self.cpu.sessions[home].open(&wire)?))?;
        self.cpu.posmap[id.0 as usize] = result.new_global_leaf;

        // APPEND to every SDIMM: the real block to its new home (when it
        // migrated), dummies everywhere else.
        // lint: declassify(the SDIMM already disclosed the fresh remap leaf over the sealed link; routing stays traffic-uniform because the APPEND round sends one sealed message to every SDIMM)
        let dest = (result.new_global_leaf.0 / self.cpu.local_leaves) as usize;
        // lint: declassify(same disclosure as `dest` above: the remap leaf is protocol-public once returned by the SDIMM)
        let local_new = Leaf(result.new_global_leaf.0 % self.cpu.local_leaves);
        for i in 0..self.buffers.len() {
            let msg = if i == dest && dest != home {
                AppendMessage { real: true, id, local_leaf: local_new, data: result.data }
            } else {
                AppendMessage::dummy(&mut self.cpu.rng)
            };
            let wire = self.cpu.sessions[i].seal(&msg.encode());
            self.buffers[i].handle_append(&wire)?;
        }
        Ok(result.data)
    }

    /// Verifies all local ORAM invariants.
    pub fn check_invariants(&self) {
        for b in &self.buffers {
            b.check_invariant();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(b: u8) -> [u8; 64] {
        [b; 64]
    }

    fn system() -> WireSystem {
        let tree = OramConfig { levels: 8, ..OramConfig::tiny() };
        WireSystem::boot(2, &tree, 128, 3)
    }

    #[test]
    fn read_your_writes_over_the_wire() {
        let mut sys = system();
        sys.access(BlockId(1), Op::Write, Some(block(0xAA))).unwrap();
        let got = sys.access(BlockId(1), Op::Read, None).unwrap();
        assert_eq!(got, block(0xAA));
        sys.check_invariants();
    }

    #[test]
    fn many_blocks_roundtrip_across_migrations() {
        let mut sys = system();
        for i in 0..64u64 {
            sys.access(BlockId(i), Op::Write, Some(block(i as u8))).unwrap();
        }
        // Re-read twice so most blocks migrate at least once.
        for _round in 0..2 {
            for i in 0..64u64 {
                let got = sys.access(BlockId(i), Op::Read, None).unwrap();
                assert_eq!(got, block(i as u8), "block {i}");
            }
        }
        sys.check_invariants();
    }

    #[test]
    fn four_sdimm_boot_and_access() {
        let tree = OramConfig { levels: 9, ..OramConfig::tiny() };
        let mut sys = WireSystem::boot(4, &tree, 64, 5);
        assert_eq!(sys.sdimms(), 4);
        sys.access(BlockId(0), Op::Write, Some(block(7))).unwrap();
        assert_eq!(sys.access(BlockId(0), Op::Read, None).unwrap(), block(7));
    }

    #[test]
    fn probes_are_counted() {
        let mut sys = system();
        for i in 0..10u64 {
            sys.access(BlockId(i), Op::Read, None).unwrap();
        }
        assert_eq!(sys.probes(), 10);
    }

    #[test]
    fn wire_messages_never_leak_plaintext() {
        let tree = OramConfig { levels: 8, ..OramConfig::tiny() };
        let mut sys = WireSystem::boot(2, &tree, 128, 9);
        // Capture an ACCESS as it would appear on the bus.
        let req = AccessRequest {
            id: BlockId(1),
            local_leaf: Leaf(3),
            op: Op::Write,
            data: *b"THE-SECRET-PAYLOAD-THE-SECRET-PAYLOAD-THE-SECRET-PAYLOAD-64bytes",
        };
        let wire = sys.cpu.sessions[0].seal(&req.encode());
        assert!(
            !wire.ciphertext.windows(10).any(|w| w == b"THE-SECRET"),
            "plaintext visible on the bus"
        );
        // And the buffer still decodes it.
        sys.buffers[0].handle_access(&wire).unwrap();
    }

    #[test]
    fn tampered_access_is_rejected() {
        let mut sys = system();
        let req =
            AccessRequest { id: BlockId(0), local_leaf: Leaf(0), op: Op::Read, data: block(0) };
        let mut wire = sys.cpu.sessions[0].seal(&req.encode());
        wire.ciphertext[3] ^= 1;
        assert!(sys.buffers[0].handle_access(&wire).is_err());
    }

    #[test]
    fn fetch_without_pending_result_fails() {
        let mut sys = system();
        assert!(sys.buffers[0].handle_fetch_result().is_err());
    }

    #[test]
    fn codec_roundtrips() {
        let req =
            AccessRequest { id: BlockId(7), local_leaf: Leaf(9), op: Op::Write, data: block(1) };
        assert_eq!(AccessRequest::decode(req.encode()).unwrap(), req);
        let res = AccessResult { new_global_leaf: Leaf(44), data: block(2) };
        assert_eq!(AccessResult::decode(res.encode()).unwrap(), res);
        let app = AppendMessage { real: true, id: BlockId(3), local_leaf: Leaf(5), data: block(4) };
        assert_eq!(AppendMessage::decode(app.encode()).unwrap(), app);
    }

    #[test]
    fn codec_rejects_wrong_tag() {
        let req =
            AccessRequest { id: BlockId(7), local_leaf: Leaf(9), op: Op::Read, data: block(1) };
        let mut bytes = req.encode().to_vec();
        bytes[0] = 0x7F;
        assert!(AccessRequest::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn append_and_access_messages_are_same_size() {
        // Reads and writes, real appends and dummies: all the same wire
        // footprint (size indistinguishability).
        let a = AccessRequest { id: BlockId(0), local_leaf: Leaf(0), op: Op::Read, data: block(0) };
        let b =
            AccessRequest { id: BlockId(9), local_leaf: Leaf(1), op: Op::Write, data: block(1) };
        assert_eq!(a.encode().len(), b.encode().len());
        let mut rng = StdRng::seed_from_u64(1);
        let real =
            AppendMessage { real: true, id: BlockId(1), local_leaf: Leaf(1), data: block(3) };
        assert_eq!(real.encode().len(), AppendMessage::dummy(&mut rng).encode().len());
    }
}
