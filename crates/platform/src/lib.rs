#![warn(missing_docs)]

//! # dls-platform — the realistic Grid platform model of §2
//!
//! The paper models a large-scale platform as a collection of `K` clusters
//! scattered over the internet:
//!
//! * every cluster `C^k` is a single *equivalent processor* of cumulated
//!   speed `s_k`; like §2, the model takes `s_k` as given and does not
//!   perform the classical divisible-load-theory collapse itself;
//! * the cluster's front-end reaches its site router through a **local
//!   link** of capacity `g_k`, shared fluidly by all flows entering and
//!   leaving the cluster;
//! * routers are interconnected by an arbitrary graph of **backbone
//!   links**; a backbone link `l` grants *each* connection a fixed bandwidth
//!   `bw(l)` — the wide-area TCP sharing behaviour exploited by GridFTP-style
//!   parallel streams — up to a cap of `max-connect(l)` simultaneous
//!   connections;
//! * routing between clusters is **fixed**: `L_{k,l}` is an ordered list of
//!   backbone links (computed here by fewest-hops shortest paths with a
//!   widest-bottleneck tie-break, or supplied explicitly).
//!
//! [`Platform`] is the immutable validated model, [`PlatformBuilder`]
//! constructs arbitrary topologies, and [`generator`] samples the random
//! platforms of the paper's evaluation (Table 1 parameter grid).
//!
//! ```
//! use dls_platform::PlatformBuilder;
//!
//! let mut b = PlatformBuilder::new();
//! let c0 = b.add_cluster(100.0, 50.0);   // speed s_0, local link g_0
//! let c1 = b.add_cluster(200.0, 40.0);
//! b.connect_clusters(c0, c1, 10.0, 4);   // bw per connection, max-connect
//! let p = b.build().unwrap();
//! assert_eq!(p.route(c0, c1).unwrap().len(), 1);
//! assert_eq!(p.route_bottleneck_bw(c0, c1), Some(10.0));
//! ```

pub mod builder;
pub mod dot;
pub mod generator;
pub mod model;

pub use builder::PlatformBuilder;
pub use dot::to_dot;
pub use generator::{ParameterGrid, PlatformConfig, PlatformGenerator};
pub use model::{
    BackboneLink, Cluster, ClusterId, LinkId, Platform, PlatformError, RouteTable, RouterId,
};
