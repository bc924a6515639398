//! The serve client: request/reply with interleaved delta pushes.
//!
//! A subscribed session can receive an unsolicited `Delta` frame at any
//! moment — including between a request and its reply. The client
//! absorbs that: any `Delta` arriving while waiting for a reply is
//! queued, and [`ServeClient::next_delta`] drains the queue before
//! touching the socket. Replies are matched to requests by echo id, so
//! a misrouted frame is a loud [`ServeError::Protocol`], never a
//! silently wrong answer.

use crate::proto::{
    decode_reply, encode_request, ServeReply, ServeRequest, ServeStats, SnapshotEntry,
    SERVE_PROTOCOL_VERSION,
};
use crate::spec::{EntryKey, Mutation};
use crate::state::{Delta, DeltaBatch};
use crate::ServeError;
use bdb_cluster::{FrameTransport, TcpTransport};
use bdb_wcrt::WorkloadProfile;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// What a `Mutate` request changed, from the server's `Mutated` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateOutcome {
    /// The post-mutation catalog sequence number.
    pub seq: u64,
    /// Entries created.
    pub created: u64,
    /// Entries whose profile bytes changed.
    pub updated: u64,
    /// Entries deleted.
    pub deleted: u64,
}

/// What the server said in its `Hello` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Materialized entry count at session start.
    pub entries: u64,
    /// Catalog sequence number at session start.
    pub seq: u64,
}

/// A blocking client for one serve session.
pub struct ServeClient {
    transport: Arc<dyn FrameTransport>,
    next_id: u64,
    pending: VecDeque<DeltaBatch>,
}

impl ServeClient {
    /// Connects over TCP.
    pub fn connect(addr: &str, timeout: Duration) -> Result<ServeClient, ServeError> {
        let transport = TcpTransport::connect(addr, timeout)?;
        Ok(ServeClient::over(Arc::new(transport)))
    }

    /// Wraps an existing transport (loopback in tests).
    pub fn over(transport: Arc<dyn FrameTransport>) -> ServeClient {
        ServeClient {
            transport,
            next_id: 0,
            pending: VecDeque::new(),
        }
    }

    /// Opens the session; must be the first call.
    pub fn hello(&mut self, client: &str) -> Result<SessionInfo, ServeError> {
        let request = ServeRequest::Hello {
            client: client.to_owned(),
            protocol: SERVE_PROTOCOL_VERSION,
        };
        if let Err(e) = self.transport.send_payload(&encode_request(&request)) {
            // A refused session hangs up before reading anything, but
            // its parting `Busy`/`Error` frame may already be queued;
            // surface the refusal instead of the bare transport failure.
            if let Ok(Some(payload)) = self
                .transport
                .recv_payload_timeout(Duration::from_millis(50))
            {
                match decode_reply(&payload) {
                    Ok(ServeReply::Error { message, .. }) => {
                        return Err(ServeError::Remote(message));
                    }
                    Ok(ServeReply::Busy {
                        max_clients,
                        retry_after_ticks,
                        ..
                    }) => {
                        return Err(ServeError::ServerFull {
                            max_clients,
                            retry_after_ticks,
                        });
                    }
                    _ => {}
                }
            }
            return Err(e.into());
        }
        match self.recv_reply()? {
            ServeReply::Hello {
                entries,
                protocol,
                seq,
                ..
            } => {
                if protocol != SERVE_PROTOCOL_VERSION {
                    return Err(ServeError::Protocol(format!(
                        "server speaks protocol {protocol}, client speaks {SERVE_PROTOCOL_VERSION}"
                    )));
                }
                Ok(SessionInfo { entries, seq })
            }
            ServeReply::Error { message, .. } => Err(ServeError::Remote(message)),
            ServeReply::Busy {
                max_clients,
                retry_after_ticks,
                ..
            } => Err(ServeError::ServerFull {
                max_clients,
                retry_after_ticks,
            }),
            other => Err(ServeError::Protocol(format!(
                "expected hello reply, got {other:?}"
            ))),
        }
    }

    /// Fetches one entry; `None` means the key is not served.
    pub fn query(&mut self, key: &EntryKey) -> Result<Option<(u64, WorkloadProfile)>, ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(
            id,
            &ServeRequest::Query {
                id,
                key: key.clone(),
            },
        )? {
            ServeReply::Profile {
                fingerprint,
                profile,
                ..
            } => Ok(Some((fingerprint, *profile))),
            ServeReply::NotFound { .. } => Ok(None),
            other => Err(unexpected("profile", &other)),
        }
    }

    /// Fetches the whole catalog and the seq it reflects.
    pub fn snapshot(&mut self) -> Result<(u64, Vec<SnapshotEntry>), ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(id, &ServeRequest::Snapshot { id })? {
            ServeReply::Snapshot { entries, seq, .. } => Ok((seq, entries)),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Applies one mutation on the server.
    pub fn mutate(&mut self, mutation: Mutation) -> Result<MutateOutcome, ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(id, &ServeRequest::Mutate { id, mutation })? {
            ServeReply::Mutated {
                created,
                deleted,
                seq,
                updated,
                ..
            } => Ok(MutateOutcome {
                seq,
                created,
                updated,
                deleted,
            }),
            other => Err(unexpected("mutated", &other)),
        }
    }

    /// Registers for delta pushes; returns the seq already covered
    /// (pushed batches will all have `seq` greater than this).
    pub fn subscribe(&mut self) -> Result<u64, ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(id, &ServeRequest::Subscribe { id })? {
            ServeReply::Subscribed { seq, .. } => Ok(seq),
            other => Err(unexpected("subscribed", &other)),
        }
    }

    /// Fetches server + engine counters.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(id, &ServeRequest::Stats { id })? {
            ServeReply::Stats { stats, .. } => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the daemon to exit.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let id = self.fresh_id();
        match self.roundtrip(id, &ServeRequest::Shutdown { id })? {
            ServeReply::ShuttingDown { .. } => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Closes the session cleanly.
    pub fn bye(self) -> Result<(), ServeError> {
        self.transport
            .send_payload(&encode_request(&ServeRequest::Bye))
            .map_err(ServeError::from)
    }

    /// The next pushed delta batch: queued batches first, then up to
    /// `timeout` waiting on the wire. `None` on timeout.
    pub fn next_delta(&mut self, timeout: Duration) -> Result<Option<DeltaBatch>, ServeError> {
        if let Some(batch) = self.pending.pop_front() {
            return Ok(Some(batch));
        }
        match self.transport.recv_payload_timeout(timeout)? {
            None => Ok(None),
            Some(payload) => match decode_reply(&payload)? {
                ServeReply::Delta(batch) => Ok(Some(batch)),
                other => Err(unexpected("delta", &other)),
            },
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one request and waits for its id-matched reply, queueing
    /// any delta pushes that arrive in between.
    fn roundtrip(&mut self, id: u64, request: &ServeRequest) -> Result<ServeReply, ServeError> {
        self.transport.send_payload(&encode_request(request))?;
        loop {
            match self.recv_reply()? {
                ServeReply::Delta(batch) => self.pending.push_back(batch),
                ServeReply::Error { id: got, message } if got == id || got == 0 => {
                    return Err(ServeError::Remote(message));
                }
                ServeReply::Busy {
                    max_clients,
                    retry_after_ticks,
                    ..
                } => {
                    return Err(ServeError::ServerFull {
                        max_clients,
                        retry_after_ticks,
                    });
                }
                reply => {
                    let got = reply_id(&reply);
                    if got != Some(id) {
                        return Err(ServeError::Protocol(format!(
                            "reply id {got:?} does not match request id {id}"
                        )));
                    }
                    return Ok(reply);
                }
            }
        }
    }

    fn recv_reply(&mut self) -> Result<ServeReply, ServeError> {
        decode_reply(&self.transport.recv_payload()?)
    }
}

fn reply_id(reply: &ServeReply) -> Option<u64> {
    match reply {
        ServeReply::Profile { id, .. }
        | ServeReply::NotFound { id, .. }
        | ServeReply::Snapshot { id, .. }
        | ServeReply::Mutated { id, .. }
        | ServeReply::Subscribed { id, .. }
        | ServeReply::Stats { id, .. }
        | ServeReply::ShuttingDown { id }
        | ServeReply::Error { id, .. } => Some(*id),
        ServeReply::Hello { .. } | ServeReply::Delta(_) | ServeReply::Busy { .. } => None,
    }
}

fn unexpected(wanted: &str, got: &ServeReply) -> ServeError {
    match got {
        ServeReply::Error { message, .. } => ServeError::Remote(message.clone()),
        other => ServeError::Protocol(format!("expected {wanted} reply, got {other:?}")),
    }
}

/// Applies one delta batch to a snapshot held as `key → entry`. After
/// applying every batch with `seq` greater than the snapshot's, the map
/// equals the server's live catalog — the client half of the
/// incremental-recomputation contract.
pub fn apply_delta_batch(entries: &mut BTreeMap<String, SnapshotEntry>, batch: &DeltaBatch) {
    for delta in &batch.deltas {
        match delta {
            Delta::Created {
                key,
                fingerprint,
                profile,
            }
            | Delta::Updated {
                key,
                fingerprint,
                profile,
            } => {
                entries.insert(
                    key.render(),
                    SnapshotEntry {
                        fingerprint: *fingerprint,
                        key: key.clone(),
                        profile: Box::new(profile.clone()),
                    },
                );
            }
            Delta::Deleted { key } => {
                entries.remove(&key.render());
            }
        }
    }
}
