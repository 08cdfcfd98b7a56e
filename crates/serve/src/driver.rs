//! The one rule that turns a stream event into engine calls.
//!
//! Every driver feeds its events through [`StreamDriver::event`]:
//! [`crate::Replay`] over a prepared corpus's precomputed features,
//! [`crate::ingest_stream`] over streamed chunks featurized on the fly,
//! and load harnesses that flatten a stream into [`Op`]s to pace them one
//! by one. The drivers differ only in where features and follower lists
//! come from; the rule itself is:
//!
//! * an **original** tweet is fanned out as a candidate to every follower
//!   of its author;
//! * a **retweet** does two things: the reposter's model *observes* the
//!   original's features (a retweet is the interest signal the whole study
//!   is built on), and the original is fanned out as a candidate to the
//!   reposter's followers at the repost's time — how content propagates
//!   past the author's own audience;
//! * every `query_every` events, the next evaluated user (round-robin) is
//!   asked for their top-k as of the event's timestamp.

use std::sync::Arc;

use pmr_sim::{StreamEvent, UserId};

use crate::engine::Op;
use crate::replay::ReplayOptions;
use crate::shard::TweetFeatures;

/// The event cursor and query schedule shared by every driver.
#[derive(Debug, Clone)]
pub struct StreamDriver {
    /// Top-k size of issued queries.
    k: usize,
    /// Issue one query every this many events (0 disables querying).
    query_every: usize,
    /// Query targets, asked in turn.
    eval_users: Vec<UserId>,
    /// Events consumed so far.
    events: u64,
    /// Queries issued so far.
    queries: u64,
}

impl StreamDriver {
    /// A driver at stream position 0, querying `eval_users` round-robin
    /// under `options`' `k` and `query_every`.
    pub fn new(options: &ReplayOptions, eval_users: Vec<UserId>) -> StreamDriver {
        StreamDriver {
            k: options.k,
            query_every: options.query_every,
            eval_users,
            events: 0,
            queries: 0,
        }
    }

    /// Continue after `events` consumed events and `queries` issued
    /// queries — the position a snapshot header records.
    pub(crate) fn resumed(self, events: u64, queries: u64) -> StreamDriver {
        StreamDriver { events, queries, ..self }
    }

    /// Events consumed so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Queries issued so far.
    pub(crate) fn queries(&self) -> u64 {
        self.queries
    }

    /// Turn one stream event into engine operations, handed to `emit` in
    /// issue order. `features` are the *original's* (a retweet carries
    /// its original's); an event without features is fanned out to no one.
    /// `followers` are the followers of `event.author` — for a retweet,
    /// the reposter's audience.
    pub fn event(
        &mut self,
        event: &StreamEvent,
        features: Option<&Arc<TweetFeatures>>,
        followers: &[UserId],
        mut emit: impl FnMut(Op),
    ) {
        pmr_obs::counter_add("serve.events", 1);
        if let Some(features) = features {
            let tweet = match event.retweet_of {
                None => event.tweet,
                Some(original) => {
                    emit(Op::Observe { user: event.author, features: Arc::clone(features) });
                    original
                }
            };
            for &user in followers {
                emit(Op::Candidate { user, tweet, at: event.at, features: Arc::clone(features) });
            }
        }
        self.events += 1;
        if self.query_every > 0
            && self.events.is_multiple_of(self.query_every as u64)
            && !self.eval_users.is_empty()
        {
            let user = self.eval_users[self.queries as usize % self.eval_users.len()];
            self.queries += 1;
            emit(Op::Query { user, k: self.k, at: event.at });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::SparseVector;
    use pmr_sim::{Timestamp, TweetId};

    /// An op as `(kind, user, tweet or k, at)`; observes carry no tweet.
    fn summary(op: &Op) -> (char, u32, u32, Timestamp) {
        match op {
            Op::Candidate { user, tweet, at, .. } => ('c', user.0, tweet.0, *at),
            Op::Observe { user, .. } => ('o', user.0, 0, 0),
            Op::Query { user, k, at } => ('q', user.0, *k as u32, *at),
        }
    }

    #[test]
    fn the_rule_fans_out_observes_and_queries_round_robin() {
        let features = Arc::new(TweetFeatures::Bag(SparseVector::new()));
        let event = |at, tweet, author, retweet_of: Option<u32>| StreamEvent {
            at,
            tweet: TweetId(tweet),
            author: UserId(author),
            retweet_of: retweet_of.map(TweetId),
        };
        let options = ReplayOptions { k: 3, query_every: 2, ..ReplayOptions::default() };
        let mut driver = StreamDriver::new(&options, vec![UserId(7), UserId(8)]);
        let mut ops = Vec::new();
        let steps = [
            // An original reaches its author's followers.
            (event(10, 0, 1, None), Some(&features), vec![UserId(2), UserId(3)]),
            // A retweet: the reposter observes, then the *original* reaches
            // the reposter's followers at the repost's time.
            (event(11, 1, 2, Some(0)), Some(&features), vec![UserId(4)]),
            // An event without features reaches no one but still counts.
            (event(12, 2, 4, None), None, vec![UserId(1)]),
            (event(13, 3, 1, None), Some(&features), vec![]),
        ];
        for (e, f, followers) in &steps {
            driver.event(e, *f, followers, |op| ops.push(summary(&op)));
        }
        assert_eq!(
            ops,
            vec![
                ('c', 2, 0, 10),
                ('c', 3, 0, 10),
                ('o', 2, 0, 0),
                ('c', 4, 0, 11),
                ('q', 7, 3, 11),
                ('q', 8, 3, 13),
            ]
        );
        assert_eq!((driver.events(), driver.queries()), (4, 2));
        // A resumed driver continues the round robin where it left off.
        let mut resumed = StreamDriver::new(&options, vec![UserId(7), UserId(8)]).resumed(5, 3);
        let mut ops = Vec::new();
        resumed.event(&event(14, 4, 1, None), None, &[], |op| ops.push(summary(&op)));
        assert_eq!(ops, vec![('q', 8, 3, 14)]);
    }
}
