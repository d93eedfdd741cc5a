//! A Kafka-like data bus (§2.4, §2.5).
//!
//! Standard-materialized-state applications (option 3) obtain data
//! updates through "a Kafka-like data bus"; the AdEvents stream
//! processors consume it directly. The bus is an append-only log per
//! (topic, partition) with consumer-managed offsets — enough surface
//! for a consumer to replay from any offset after a shard moves.

use sm_types::SmError;
use std::collections::BTreeMap;

/// A topic partition's append-only log.
#[derive(Clone, Debug, Default)]
struct PartitionLog {
    records: Vec<Vec<u8>>,
}

/// The data bus: topics × partitions of durable records.
#[derive(Clone, Debug, Default)]
pub struct DataBus {
    partitions: BTreeMap<(String, u32), PartitionLog>,
}

impl DataBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a topic with `partitions` partitions.
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (AdEvents: the Kafka-like data bus); no world drives it yet
    pub fn create_topic(&mut self, topic: &str, partitions: u32) {
        for p in 0..partitions {
            self.partitions.entry((topic.to_string(), p)).or_default();
        }
    }

    /// Number of partitions of `topic`.
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (AdEvents: the Kafka-like data bus); no world drives it yet
    pub fn partition_count(&self, topic: &str) -> u32 {
        self.partitions.keys().filter(|(t, _)| t == topic).count() as u32
    }

    /// Appends a record, returning its offset.
    pub fn publish(
        &mut self,
        topic: &str,
        partition: u32,
        record: Vec<u8>,
    ) -> Result<u64, SmError> {
        let log = self
            .partitions
            .get_mut(&(topic.to_string(), partition))
            .ok_or_else(|| SmError::not_found(format!("{topic}/{partition}")))?;
        log.records.push(record);
        Ok(log.records.len() as u64 - 1)
    }

    /// Reads up to `max` records starting at `offset`.
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (AdEvents: the Kafka-like data bus); no world drives it yet
    pub fn consume(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<(u64, &[u8])>, SmError> {
        let log = self
            .partitions
            .get(&(topic.to_string(), partition))
            .ok_or_else(|| SmError::not_found(format!("{topic}/{partition}")))?;
        Ok(log
            .records
            .iter()
            .enumerate()
            .skip(offset as usize)
            .take(max)
            .map(|(i, r)| (i as u64, r.as_slice()))
            .collect())
    }

    /// The end offset (next offset to be written) of a partition.
    pub(crate) fn end_offset(&self, topic: &str, partition: u32) -> Result<u64, SmError> {
        self.partitions
            .get(&(topic.to_string(), partition))
            .map(|l| l.records.len() as u64)
            .ok_or_else(|| SmError::not_found(format!("{topic}/{partition}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_consume_round_trip() {
        let mut bus = DataBus::new();
        bus.create_topic("events", 2);
        assert_eq!(bus.publish("events", 0, b"a".to_vec()).unwrap(), 0);
        assert_eq!(bus.publish("events", 0, b"b".to_vec()).unwrap(), 1);
        assert_eq!(bus.publish("events", 1, b"c".to_vec()).unwrap(), 0);

        let got = bus.consume("events", 0, 0, 10).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (0, b"a".as_slice()));
        assert_eq!(got[1], (1, b"b".as_slice()));
        assert_eq!(bus.end_offset("events", 0).unwrap(), 2);
    }

    #[test]
    fn consume_from_offset_replays_suffix() {
        let mut bus = DataBus::new();
        bus.create_topic("t", 1);
        for i in 0..5u8 {
            bus.publish("t", 0, vec![i]).unwrap();
        }
        let got = bus.consume("t", 0, 3, 10).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 3);
    }

    #[test]
    fn max_limits_batch() {
        let mut bus = DataBus::new();
        bus.create_topic("t", 1);
        for i in 0..10u8 {
            bus.publish("t", 0, vec![i]).unwrap();
        }
        assert_eq!(bus.consume("t", 0, 0, 4).unwrap().len(), 4);
    }

    #[test]
    fn unknown_partition_errors() {
        let bus = DataBus::new();
        assert!(bus.consume("nope", 0, 0, 1).is_err());
        assert!(bus.end_offset("nope", 0).is_err());
    }

    #[test]
    fn partition_count() {
        let mut bus = DataBus::new();
        bus.create_topic("t", 8);
        assert_eq!(bus.partition_count("t"), 8);
        assert_eq!(bus.partition_count("other"), 0);
    }
}
