//! The serve request/reply protocol.
//!
//! Payloads ride the same 4-byte length-prefixed frames as the cluster
//! wire ([`bdb_cluster::wire`]), but carry their own message set,
//! encoded as canonical JSON. Every encoded object lists its keys in one
//! fixed (alphabetical) order, so a decoded payload re-encodes to exactly
//! the bytes its sender produced.

use crate::spec::{mutation_from_value, mutation_to_value, EntryKey, Mutation};
use crate::state::{Delta, DeltaBatch};
use crate::ServeError;
use bdb_engine::codec::{profile_from_value, profile_to_value};
use bdb_engine::json::{self, Value};
use bdb_wcrt::WorkloadProfile;

/// Version tag exchanged in `Hello`; bumped on incompatible changes.
///
/// History: v1 was the original request/reply set; v2 added the `busy`
/// overload refusal (sent *before* the `Hello` handshake, so the
/// version exchange cannot negotiate it away) and the
/// `subscribers_evicted` stats counter. The counter is decoded
/// leniently (absent → 0) so a v2 client still reads a v1 server's
/// `stats` replies.
pub const SERVE_PROTOCOL_VERSION: u64 = 2;

/// A client-to-server message. Every request except `Hello`/`Bye`
/// carries a client-chosen `id`, echoed verbatim in the reply so a
/// client can match replies arriving interleaved with delta pushes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Opens a session and checks protocol compatibility.
    Hello {
        /// The client's self-chosen name (diagnostics only).
        client: String,
        /// The client's [`SERVE_PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Looks up one catalog entry (warm path — never computes).
    Query {
        /// Echo id.
        id: u64,
        /// The entry to fetch.
        key: EntryKey,
    },
    /// Fetches the whole materialized catalog.
    Snapshot {
        /// Echo id.
        id: u64,
    },
    /// Applies one spec mutation (incremental recompute + delta
    /// fan-out to subscribers).
    Mutate {
        /// Echo id.
        id: u64,
        /// The edit.
        mutation: Mutation,
    },
    /// Registers this session for delta pushes.
    Subscribe {
        /// Echo id.
        id: u64,
    },
    /// Fetches server and engine counters.
    Stats {
        /// Echo id.
        id: u64,
    },
    /// Asks the daemon to stop accepting sessions and exit.
    Shutdown {
        /// Echo id.
        id: u64,
    },
    /// Clean session close.
    Bye,
}

/// A server-to-client message. (No `PartialEq`: profiles compare by
/// canonical bytes, via [`reply_to_value`]`.encode()`.)
#[derive(Debug, Clone)]
pub enum ServeReply {
    /// Session accepted.
    Hello {
        /// Materialized entry count.
        entries: u64,
        /// The server's [`SERVE_PROTOCOL_VERSION`].
        protocol: u64,
        /// Current catalog sequence number.
        seq: u64,
        /// The server's name.
        server: String,
    },
    /// A `Query` hit.
    Profile {
        /// The entry's content fingerprint.
        fingerprint: u64,
        /// Echo id.
        id: u64,
        /// The queried key.
        key: EntryKey,
        /// The materialized profile.
        profile: Box<WorkloadProfile>,
    },
    /// A `Query` miss (the key is not in the served spec).
    NotFound {
        /// Echo id.
        id: u64,
        /// The queried key.
        key: EntryKey,
    },
    /// The full catalog.
    Snapshot {
        /// One entry per catalog key, in key order.
        entries: Vec<SnapshotEntry>,
        /// Echo id.
        id: u64,
        /// The sequence number the snapshot reflects.
        seq: u64,
    },
    /// A `Mutate` was applied.
    Mutated {
        /// Entries created.
        created: u64,
        /// Entries deleted.
        deleted: u64,
        /// Echo id.
        id: u64,
        /// The post-mutation sequence number.
        seq: u64,
        /// Entries whose profile bytes changed.
        updated: u64,
    },
    /// Subscription registered.
    Subscribed {
        /// Echo id.
        id: u64,
        /// The sequence number at subscription time (deltas with
        /// `seq` greater than this will be pushed).
        seq: u64,
    },
    /// Server and engine counters.
    Stats {
        /// Echo id.
        id: u64,
        /// The counter snapshot.
        stats: ServeStats,
    },
    /// A pushed delta batch (no echo id — unsolicited).
    Delta(DeltaBatch),
    /// The daemon acknowledges `Shutdown` and will exit.
    ShuttingDown {
        /// Echo id.
        id: u64,
    },
    /// The request failed; the session stays usable.
    Error {
        /// Echo id (0 if the request was undecodable).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// The server is over its session cap and sheds this session
    /// instead of serving it. Unlike `Error`, this is a *scheduling*
    /// refusal: the catalog is healthy and the client should simply
    /// retry later. The hint is tick-denominated (the server has no
    /// wall-clock promise to make) and deterministic in the overload
    /// depth, so identical load states produce identical hints.
    Busy {
        /// Echo id (0 — refusal happens before any request decodes).
        id: u64,
        /// The server's session cap (`BDB_SERVE_MAX_CLIENTS`).
        max_clients: u64,
        /// Suggested retry delay, in server ticks: proportional to how
        /// far over the cap the server currently is.
        retry_after_ticks: u64,
    },
}

/// One catalog entry inside a `Snapshot` reply.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// The entry's content fingerprint.
    pub fingerprint: u64,
    /// The entry's key.
    pub key: EntryKey,
    /// The materialized profile.
    pub profile: Box<WorkloadProfile>,
}

/// Server + engine counters, as served by `Stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Profiles actually simulated by the engine (cold work).
    pub computed: u64,
    /// Delta batches broadcast (one per effective mutation).
    pub delta_batches: u64,
    /// Individual delta frames delivered across all subscribers
    /// (the fan-out measure: batches × subscribers at send time).
    pub deltas_streamed: u64,
    /// Engine disk-cache hits.
    pub disk_hits: u64,
    /// Materialized entry count.
    pub entries: u64,
    /// Engine memo entries dropped by incremental invalidation.
    pub invalidated: u64,
    /// Engine journal hits.
    pub journal_hits: u64,
    /// Engine in-memory memo hits.
    pub memory_hits: u64,
    /// Current catalog sequence number.
    pub seq: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Sessions ever opened.
    pub sessions_total: u64,
    /// Sessions currently subscribed to deltas.
    pub subscribers: u64,
    /// Subscribers evicted for falling more than `BDB_SERVE_SUB_QUEUE`
    /// delta batches behind (slow-consumer shedding).
    pub subscribers_evicted: u64,
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ServeError> {
    v.get(key)
        .ok_or_else(|| ServeError::Decode(format!("missing field {key:?}")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, ServeError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| ServeError::Decode(format!("field {key:?} is not a u64")))
}

/// Like [`get_u64`], but an *absent* field decodes as `default` — for
/// counters added after v1, so mixed-version stats decoding degrades
/// gracefully instead of erroring. A present-but-mistyped field still
/// fails loudly.
fn get_u64_or(v: &Value, key: &str, default: u64) -> Result<u64, ServeError> {
    match v.get(key) {
        None => Ok(default),
        Some(field) => field
            .as_u64()
            .ok_or_else(|| ServeError::Decode(format!("field {key:?} is not a u64"))),
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| ServeError::Decode(format!("field {key:?} is not a string")))
}

fn get_key(v: &Value, key: &str) -> Result<EntryKey, ServeError> {
    EntryKey::parse(get_str(v, key)?)
}

/// Encodes a request as a canonical JSON value (alphabetical keys).
pub fn request_to_value(req: &ServeRequest) -> Value {
    let tagged = |tag: &str, id: u64| {
        Value::object(vec![
            ("id", Value::UInt(id)),
            ("type", Value::Str(tag.to_owned())),
        ])
    };
    match req {
        ServeRequest::Hello { client, protocol } => Value::object(vec![
            ("client", Value::Str(client.clone())),
            ("protocol", Value::UInt(*protocol)),
            ("type", Value::Str("hello".to_owned())),
        ]),
        ServeRequest::Query { id, key } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("key", Value::Str(key.render())),
            ("type", Value::Str("query".to_owned())),
        ]),
        ServeRequest::Snapshot { id } => tagged("snapshot", *id),
        ServeRequest::Mutate { id, mutation } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("mutation", mutation_to_value(mutation)),
            ("type", Value::Str("mutate".to_owned())),
        ]),
        ServeRequest::Subscribe { id } => tagged("subscribe", *id),
        ServeRequest::Stats { id } => tagged("stats", *id),
        ServeRequest::Shutdown { id } => tagged("shutdown", *id),
        ServeRequest::Bye => Value::object(vec![("type", Value::Str("bye".to_owned()))]),
    }
}

/// Decodes [`request_to_value`].
pub fn request_from_value(v: &Value) -> Result<ServeRequest, ServeError> {
    match get_str(v, "type")? {
        "hello" => Ok(ServeRequest::Hello {
            client: get_str(v, "client")?.to_owned(),
            protocol: get_u64(v, "protocol")?,
        }),
        "query" => Ok(ServeRequest::Query {
            id: get_u64(v, "id")?,
            key: get_key(v, "key")?,
        }),
        "snapshot" => Ok(ServeRequest::Snapshot {
            id: get_u64(v, "id")?,
        }),
        "mutate" => Ok(ServeRequest::Mutate {
            id: get_u64(v, "id")?,
            mutation: mutation_from_value(get(v, "mutation")?)?,
        }),
        "subscribe" => Ok(ServeRequest::Subscribe {
            id: get_u64(v, "id")?,
        }),
        "stats" => Ok(ServeRequest::Stats {
            id: get_u64(v, "id")?,
        }),
        "shutdown" => Ok(ServeRequest::Shutdown {
            id: get_u64(v, "id")?,
        }),
        "bye" => Ok(ServeRequest::Bye),
        other => Err(ServeError::Decode(format!(
            "unknown request type {other:?}"
        ))),
    }
}

fn delta_to_value(d: &Delta) -> Value {
    match d {
        Delta::Created {
            key,
            fingerprint,
            profile,
        } => Value::object(vec![
            ("fingerprint", Value::UInt(*fingerprint)),
            ("key", Value::Str(key.render())),
            ("kind", Value::Str("created".to_owned())),
            ("profile", profile_to_value(profile)),
        ]),
        Delta::Updated {
            key,
            fingerprint,
            profile,
        } => Value::object(vec![
            ("fingerprint", Value::UInt(*fingerprint)),
            ("key", Value::Str(key.render())),
            ("kind", Value::Str("updated".to_owned())),
            ("profile", profile_to_value(profile)),
        ]),
        Delta::Deleted { key } => Value::object(vec![
            ("key", Value::Str(key.render())),
            ("kind", Value::Str("deleted".to_owned())),
        ]),
    }
}

fn delta_from_value(v: &Value) -> Result<Delta, ServeError> {
    let key = get_key(v, "key")?;
    let payload = || -> Result<(u64, WorkloadProfile), ServeError> {
        Ok((
            get_u64(v, "fingerprint")?,
            profile_from_value(get(v, "profile")?).map_err(|e| ServeError::Decode(e.0))?,
        ))
    };
    match get_str(v, "kind")? {
        "created" => {
            let (fingerprint, profile) = payload()?;
            Ok(Delta::Created {
                key,
                fingerprint,
                profile,
            })
        }
        "updated" => {
            let (fingerprint, profile) = payload()?;
            Ok(Delta::Updated {
                key,
                fingerprint,
                profile,
            })
        }
        "deleted" => Ok(Delta::Deleted { key }),
        other => Err(ServeError::Decode(format!("unknown delta kind {other:?}"))),
    }
}

fn stats_to_value(s: &ServeStats) -> Value {
    Value::object(vec![
        ("computed", Value::UInt(s.computed)),
        ("delta_batches", Value::UInt(s.delta_batches)),
        ("deltas_streamed", Value::UInt(s.deltas_streamed)),
        ("disk_hits", Value::UInt(s.disk_hits)),
        ("entries", Value::UInt(s.entries)),
        ("invalidated", Value::UInt(s.invalidated)),
        ("journal_hits", Value::UInt(s.journal_hits)),
        ("memory_hits", Value::UInt(s.memory_hits)),
        ("seq", Value::UInt(s.seq)),
        ("sessions_active", Value::UInt(s.sessions_active)),
        ("sessions_total", Value::UInt(s.sessions_total)),
        ("subscribers", Value::UInt(s.subscribers)),
        ("subscribers_evicted", Value::UInt(s.subscribers_evicted)),
    ])
}

fn stats_from_value(v: &Value) -> Result<ServeStats, ServeError> {
    Ok(ServeStats {
        computed: get_u64(v, "computed")?,
        delta_batches: get_u64(v, "delta_batches")?,
        deltas_streamed: get_u64(v, "deltas_streamed")?,
        disk_hits: get_u64(v, "disk_hits")?,
        entries: get_u64(v, "entries")?,
        invalidated: get_u64(v, "invalidated")?,
        journal_hits: get_u64(v, "journal_hits")?,
        memory_hits: get_u64(v, "memory_hits")?,
        seq: get_u64(v, "seq")?,
        sessions_active: get_u64(v, "sessions_active")?,
        sessions_total: get_u64(v, "sessions_total")?,
        subscribers: get_u64(v, "subscribers")?,
        subscribers_evicted: get_u64_or(v, "subscribers_evicted", 0)?,
    })
}

/// Encodes a reply as a canonical JSON value (alphabetical keys).
pub fn reply_to_value(reply: &ServeReply) -> Value {
    match reply {
        ServeReply::Hello {
            entries,
            protocol,
            seq,
            server,
        } => Value::object(vec![
            ("entries", Value::UInt(*entries)),
            ("protocol", Value::UInt(*protocol)),
            ("seq", Value::UInt(*seq)),
            ("server", Value::Str(server.clone())),
            ("type", Value::Str("hello".to_owned())),
        ]),
        ServeReply::Profile {
            fingerprint,
            id,
            key,
            profile,
        } => Value::object(vec![
            ("fingerprint", Value::UInt(*fingerprint)),
            ("id", Value::UInt(*id)),
            ("key", Value::Str(key.render())),
            ("profile", profile_to_value(profile)),
            ("type", Value::Str("profile".to_owned())),
        ]),
        ServeReply::NotFound { id, key } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("key", Value::Str(key.render())),
            ("type", Value::Str("not_found".to_owned())),
        ]),
        ServeReply::Snapshot { entries, id, seq } => Value::object(vec![
            (
                "entries",
                Value::Array(
                    entries
                        .iter()
                        .map(|e| {
                            Value::object(vec![
                                ("fingerprint", Value::UInt(e.fingerprint)),
                                ("key", Value::Str(e.key.render())),
                                ("profile", profile_to_value(&e.profile)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("id", Value::UInt(*id)),
            ("seq", Value::UInt(*seq)),
            ("type", Value::Str("snapshot".to_owned())),
        ]),
        ServeReply::Mutated {
            created,
            deleted,
            id,
            seq,
            updated,
        } => Value::object(vec![
            ("created", Value::UInt(*created)),
            ("deleted", Value::UInt(*deleted)),
            ("id", Value::UInt(*id)),
            ("seq", Value::UInt(*seq)),
            ("type", Value::Str("mutated".to_owned())),
            ("updated", Value::UInt(*updated)),
        ]),
        ServeReply::Subscribed { id, seq } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("seq", Value::UInt(*seq)),
            ("type", Value::Str("subscribed".to_owned())),
        ]),
        ServeReply::Stats { id, stats } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("stats", stats_to_value(stats)),
            ("type", Value::Str("stats".to_owned())),
        ]),
        ServeReply::Delta(batch) => Value::object(vec![
            (
                "deltas",
                Value::Array(batch.deltas.iter().map(delta_to_value).collect()),
            ),
            ("seq", Value::UInt(batch.seq)),
            ("type", Value::Str("delta".to_owned())),
        ]),
        ServeReply::ShuttingDown { id } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("type", Value::Str("shutting_down".to_owned())),
        ]),
        ServeReply::Error { id, message } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("message", Value::Str(message.clone())),
            ("type", Value::Str("error".to_owned())),
        ]),
        ServeReply::Busy {
            id,
            max_clients,
            retry_after_ticks,
        } => Value::object(vec![
            ("id", Value::UInt(*id)),
            ("max_clients", Value::UInt(*max_clients)),
            ("retry_after_ticks", Value::UInt(*retry_after_ticks)),
            ("type", Value::Str("busy".to_owned())),
        ]),
    }
}

/// Decodes [`reply_to_value`].
pub fn reply_from_value(v: &Value) -> Result<ServeReply, ServeError> {
    match get_str(v, "type")? {
        "hello" => Ok(ServeReply::Hello {
            entries: get_u64(v, "entries")?,
            protocol: get_u64(v, "protocol")?,
            seq: get_u64(v, "seq")?,
            server: get_str(v, "server")?.to_owned(),
        }),
        "profile" => Ok(ServeReply::Profile {
            fingerprint: get_u64(v, "fingerprint")?,
            id: get_u64(v, "id")?,
            key: get_key(v, "key")?,
            profile: Box::new(
                profile_from_value(get(v, "profile")?).map_err(|e| ServeError::Decode(e.0))?,
            ),
        }),
        "not_found" => Ok(ServeReply::NotFound {
            id: get_u64(v, "id")?,
            key: get_key(v, "key")?,
        }),
        "snapshot" => {
            let raw = get(v, "entries")?.as_array().ok_or_else(|| {
                ServeError::Decode("field \"entries\" is not an array".to_owned())
            })?;
            let mut entries = Vec::with_capacity(raw.len());
            for e in raw {
                entries.push(SnapshotEntry {
                    fingerprint: get_u64(e, "fingerprint")?,
                    key: get_key(e, "key")?,
                    profile: Box::new(
                        profile_from_value(get(e, "profile")?)
                            .map_err(|err| ServeError::Decode(err.0))?,
                    ),
                });
            }
            Ok(ServeReply::Snapshot {
                entries,
                id: get_u64(v, "id")?,
                seq: get_u64(v, "seq")?,
            })
        }
        "mutated" => Ok(ServeReply::Mutated {
            created: get_u64(v, "created")?,
            deleted: get_u64(v, "deleted")?,
            id: get_u64(v, "id")?,
            seq: get_u64(v, "seq")?,
            updated: get_u64(v, "updated")?,
        }),
        "subscribed" => Ok(ServeReply::Subscribed {
            id: get_u64(v, "id")?,
            seq: get_u64(v, "seq")?,
        }),
        "stats" => Ok(ServeReply::Stats {
            id: get_u64(v, "id")?,
            stats: stats_from_value(get(v, "stats")?)?,
        }),
        "delta" => {
            let raw = get(v, "deltas")?
                .as_array()
                .ok_or_else(|| ServeError::Decode("field \"deltas\" is not an array".to_owned()))?;
            let mut deltas = Vec::with_capacity(raw.len());
            for d in raw {
                deltas.push(delta_from_value(d)?);
            }
            Ok(ServeReply::Delta(DeltaBatch {
                seq: get_u64(v, "seq")?,
                deltas,
            }))
        }
        "shutting_down" => Ok(ServeReply::ShuttingDown {
            id: get_u64(v, "id")?,
        }),
        "error" => Ok(ServeReply::Error {
            id: get_u64(v, "id")?,
            message: get_str(v, "message")?.to_owned(),
        }),
        "busy" => Ok(ServeReply::Busy {
            id: get_u64(v, "id")?,
            max_clients: get_u64(v, "max_clients")?,
            retry_after_ticks: get_u64(v, "retry_after_ticks")?,
        }),
        other => Err(ServeError::Decode(format!("unknown reply type {other:?}"))),
    }
}

/// Encodes a request payload (the frame layer adds the length prefix).
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    request_to_value(req).encode().into_bytes()
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest, ServeError> {
    request_from_value(&payload_value(payload)?)
}

/// Encodes a reply payload.
pub fn encode_reply(reply: &ServeReply) -> Vec<u8> {
    reply_to_value(reply).encode().into_bytes()
}

/// Decodes a reply payload.
pub fn decode_reply(payload: &[u8]) -> Result<ServeReply, ServeError> {
    reply_from_value(&payload_value(payload)?)
}

fn payload_value(payload: &[u8]) -> Result<Value, ServeError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| ServeError::Decode("not UTF-8".to_owned()))?;
    json::parse(text).map_err(|e| ServeError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::{catalog, Scale};

    fn sample_profile() -> WorkloadProfile {
        let reps = catalog::representatives();
        let grep = reps
            .iter()
            .find(|w| w.spec.id == "H-Grep")
            .expect("H-Grep is representative");
        bdb_wcrt::profile_workload(
            grep,
            Scale::tiny(),
            bdb_sim::MachineConfig::xeon_e5645(),
            bdb_node::NodeConfig::default(),
        )
    }

    fn sample_requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::Hello {
                client: "smoke".to_owned(),
                protocol: SERVE_PROTOCOL_VERSION,
            },
            ServeRequest::Query {
                id: 1,
                key: EntryKey::new("xeon-e5645", "H-Grep"),
            },
            ServeRequest::Snapshot { id: 2 },
            ServeRequest::Mutate {
                id: 3,
                mutation: Mutation::SetKnob {
                    config: "xeon-e5645".to_owned(),
                    knob: "l1d.size_bytes".to_owned(),
                    value: Value::UInt(65536),
                },
            },
            ServeRequest::Mutate {
                id: 4,
                mutation: Mutation::AddConfig {
                    name: "atom".to_owned(),
                    machine: Box::new(bdb_sim::MachineConfig::atom_d510()),
                },
            },
            ServeRequest::Mutate {
                id: 5,
                mutation: Mutation::SetScale { factor: 0.125 },
            },
            ServeRequest::Subscribe { id: 6 },
            ServeRequest::Stats { id: 7 },
            ServeRequest::Shutdown { id: 8 },
            ServeRequest::Bye,
        ]
    }

    fn sample_replies() -> Vec<ServeReply> {
        let profile = Box::new(sample_profile());
        let key = EntryKey::new("xeon-e5645", "H-Grep");
        vec![
            ServeReply::Hello {
                entries: 17,
                protocol: SERVE_PROTOCOL_VERSION,
                seq: 3,
                server: "bdb-served".to_owned(),
            },
            ServeReply::Profile {
                fingerprint: 0xdead_beef,
                id: 1,
                key: key.clone(),
                profile: profile.clone(),
            },
            ServeReply::NotFound {
                id: 2,
                key: key.clone(),
            },
            ServeReply::Snapshot {
                entries: vec![SnapshotEntry {
                    fingerprint: 42,
                    key: key.clone(),
                    profile: profile.clone(),
                }],
                id: 3,
                seq: 4,
            },
            ServeReply::Mutated {
                created: 1,
                deleted: 2,
                id: 4,
                seq: 5,
                updated: 3,
            },
            ServeReply::Subscribed { id: 5, seq: 6 },
            ServeReply::Stats {
                id: 6,
                stats: ServeStats {
                    computed: 17,
                    entries: 17,
                    seq: 2,
                    ..ServeStats::default()
                },
            },
            ServeReply::Delta(DeltaBatch {
                seq: 7,
                deltas: vec![
                    Delta::Updated {
                        key: key.clone(),
                        fingerprint: 43,
                        profile: (*profile).clone(),
                    },
                    Delta::Deleted {
                        key: EntryKey::new("xeon-e5645", "H-Sort"),
                    },
                ],
            }),
            ServeReply::ShuttingDown { id: 8 },
            ServeReply::Error {
                id: 9,
                message: "unknown machine config \"no-such\"".to_owned(),
            },
            ServeReply::Busy {
                id: 0,
                max_clients: 64,
                retry_after_ticks: 32,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let back = decode_request(&encode_request(&req)).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn replies_round_trip_to_identical_bytes() {
        // Keys are encoded in a fixed order, so decoding and re-encoding
        // yields the sender's canonical bytes.
        for reply in sample_replies() {
            let payload = encode_reply(&reply);
            let back = decode_reply(&payload).expect("round trip");
            assert_eq!(encode_reply(&back), payload);
        }
    }

    #[test]
    fn wrong_record_kind_is_rejected() {
        // A request handed to the reply decoder must fail loudly, not
        // decode into garbage — including `snapshot`, whose type tag
        // both message sets share.
        for req in sample_requests() {
            let err = decode_reply(&encode_request(&req)).expect_err("request is not a reply");
            assert!(matches!(err, ServeError::Decode(_)), "{req:?}: {err:?}");
        }
    }

    #[test]
    fn v1_stats_without_subscribers_evicted_decode_leniently() {
        // A v1 server's stats reply predates the counter; a v2 client
        // must read it as 0 rather than refuse the whole reply.
        let v1 = json::parse(concat!(
            "{\"id\":6,\"stats\":{\"computed\":17,\"delta_batches\":0,",
            "\"deltas_streamed\":0,\"disk_hits\":0,\"entries\":17,",
            "\"invalidated\":0,\"journal_hits\":0,\"memory_hits\":0,",
            "\"seq\":2,\"sessions_active\":1,\"sessions_total\":1,",
            "\"subscribers\":0},\"type\":\"stats\"}"
        ))
        .expect("v1 stats reply parses");
        match reply_from_value(&v1).expect("v1 stats reply decodes") {
            ServeReply::Stats { stats, .. } => {
                assert_eq!(stats.subscribers_evicted, 0);
                assert_eq!(stats.computed, 17);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // A mistyped present field still fails loudly.
        let bad = json::parse("{\"subscribers_evicted\":\"nope\"}").expect("parses");
        assert!(super::get_u64_or(&bad, "subscribers_evicted", 0).is_err());
    }

    #[test]
    fn frozen_request_shape_still_decodes() {
        // A knob-mutation request in a shape frozen since protocol v1;
        // this pins the decoder to it.
        let req = json::parse(concat!(
            "{\"id\":7,\"mutation\":{\"config\":\"xeon\",\"knob\":\"l1d.size_bytes\",",
            "\"op\":\"set_knob\",\"value\":65536},\"type\":\"mutate\"}"
        ))
        .expect("request fixture parses");
        let decoded = request_from_value(&req).expect("request fixture decodes");
        assert!(matches!(
            decoded,
            ServeRequest::Mutate {
                id: 7,
                mutation: Mutation::SetKnob { .. }
            }
        ));
    }
}
