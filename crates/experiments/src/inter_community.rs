//! Ablation A5 — the paper's future work (§7): inter-neighbor-group
//! discovery for very large systems.
//!
//! On a large mesh, flat REALTOR floods every HELP to all N-1 nodes. The
//! inter-community variant partitions the mesh into tiles; HELP floods stay
//! inside the originator's tile and only gateway nodes relay urgent HELPs
//! into neighboring tiles. We compare admission probability and message
//! cost of the two on the same workload.

use crate::output::{emit, OutDir};
use realtor_core::inter_community::{GroupMap, InterCommunityRealtor};
use realtor_core::ProtocolKind;
use realtor_net::Topology;
use realtor_sim::{run_scenario_with, Scenario, World};
use realtor_simcore::table::{Cell, Table};

/// Run flat vs inter-community REALTOR on a `side × side` mesh tiled into
/// `tile × tile` groups.
pub fn run(side: usize, tile: usize, lambda: f64, horizon_secs: u64, seed: u64, out: &OutDir) {
    assert!(
        side > tile,
        "tiling only makes sense when the mesh exceeds one tile"
    );
    eprintln!(
        "ablation A5 (inter-community): {side}x{side} mesh, {tile}x{tile} tiles, lambda={lambda}"
    );
    // Spanning-tree flood accounting so scoped floods are charged by how
    // many nodes they actually reach (the paper's per-link charge is
    // scope-blind and would hide the savings).
    let base = |protocol| {
        Scenario::paper(protocol, lambda, horizon_secs, seed)
            .with_topology(Topology::mesh(side, side))
            .with_cost(realtor_sim::CostChoice::SpanningTree)
    };

    // Flat REALTOR: every flood reaches all nodes.
    let flat = run_scenario_with(&base(ProtocolKind::Realtor), &mut |node| {
        ProtocolKind::Realtor.build(
            node,
            realtor_core::ProtocolConfig::paper(),
            &Vec::new(),
            0.0,
        )
    });

    // Inter-community REALTOR: scoped floods plus designated gateway relays
    // (one relay per tile pair; see GroupMap::designated_relays).
    let groups = GroupMap::mesh_tiles(side, side, tile);
    let relays = groups.designated_relays();
    let scenario = base(ProtocolKind::Realtor);
    let mut world = World::with_protocols(&scenario, &mut |node| {
        Box::new(InterCommunityRealtor::new(
            node,
            realtor_core::ProtocolConfig::paper(),
            relays.binary_search(&node).is_ok(),
            1,   // relay budget: one hop across a tile boundary
            0.5, // relay only urgent HELPs
        ))
    });
    let scopes = (0..side * side).map(|n| groups.scope_of(n)).collect();
    world.set_scopes(scopes);
    let ic = {
        let mut engine = realtor_simcore::Engine::new();
        world.prime(&mut engine);
        engine.run_until(&mut world, scenario.horizon());
        world.finish(&engine)
    };

    let mut table = Table::new(
        format!(
            "Ablation A5 — flat vs inter-community REALTOR \
             ({side}x{side} mesh, {tile}x{tile} tiles, lambda={lambda})"
        ),
        &[
            "variant",
            "admission-probability",
            "total-messages",
            "cost-per-admitted-task",
            "help-floods",
            "migration-rate",
        ],
    )
    .float_precision(4);
    for (name, r) in [("flat REALTOR", &flat), ("inter-community REALTOR", &ic)] {
        table.push_row(vec![
            name.into(),
            Cell::Float(r.admission_probability()),
            Cell::Float(r.total_messages()),
            Cell::Float(r.cost_per_admitted_task()),
            Cell::Int(r.ledger.help_count as i64),
            Cell::Float(r.migration_rate()),
        ]);
    }
    emit(out, "ablation_a5_inter_community", &table);
}
