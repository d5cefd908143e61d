//! Proof that the warm fleet stepping path — including lmkd kill /
//! standing-app respawn churn — allocates exactly nothing, that renewing a
//! warm user and its observations in place allocates nothing either, and
//! that a whole shard of the million-user fleet stays within a small
//! allocation budget per user while folding byte-identically to users
//! built one at a time.
//!
//! Same counting-allocator technique as `tests/zero_alloc.rs`, in its own
//! test binary so the two `#[global_allocator]`s never meet. One test fn:
//! counting windows must not overlap across threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mvqoe_sim::{SimRng, SimTime};
use mvqoe_study::{simulate_range, simulate_user, DeviceObservation, FleetAggregate, FleetConfig};
use mvqoe_workload::FleetUser;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count heap allocations made by this thread during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_fleet_steps_without_allocating() {
    const USERS: u32 = 8;
    const WARM_SECS: u64 = 8 * 3600;
    const MEASURE_SECS: u64 = 2 * 3600;

    let root = SimRng::new(42);
    let mut users: Vec<FleetUser> = (0..USERS).map(|i| FleetUser::new(i, &root)).collect();

    // Warm-up: hours of simulated life so every user has been through
    // screen-on sessions, lmkd kill storms, and standing-app respawns.
    // The process arena's free list and every scratch buffer reach their
    // steady-state capacity here.
    for user in &mut users {
        for s in 0..WARM_SECS {
            user.step_1s(SimTime::from_secs(s));
        }
    }

    let kills = |users: &[FleetUser]| users.iter().map(FleetUser::kills_observed).sum::<u64>();
    let kills_before = kills(&users);

    // Process ids are monotonic, so the pid→slot map grows with every
    // spawn regardless of how many slots recycle; reserve headroom for
    // the window's spawns so its amortized doubling cannot land inside
    // the counted region. 4096 covers the window's launches and respawns
    // (a few hundred per user) many times over.
    for user in &mut users {
        user.reserve_spawns(4096);
    }

    // The measured window: each user steps on through the window before
    // the next one does, as the fleet study steps them.
    let n = count_allocs(|| {
        for user in &mut users {
            for s in WARM_SECS..WARM_SECS + MEASURE_SECS {
                user.step_1s(SimTime::from_secs(s));
            }
        }
    });

    // The window must actually contain churn, or "zero allocations" would
    // be a statement about an idle loop rather than about spawn/respawn
    // recycling through the arena.
    let churn = kills(&users) - kills_before;
    assert!(
        churn > 0,
        "measurement window saw no lmkd kills; widen it so the claim covers churn"
    );
    assert_eq!(
        n, 0,
        "warm fleet stepping allocated {n} times across {MEASURE_SECS} s \
         with {churn} kills (and their respawns) in the window"
    );

    // A warm shard: one user renewed in place for each index in turn, as
    // `simulate_range` renews it, with that index's observation reset,
    // then stepped and recorded. The first pass sizes every buffer for
    // these users; the second, counted, renews the same users into them
    // and must neither allocate nor observe anything else.
    let mut observations: Vec<DeviceObservation> = (0..USERS)
        .map(|_| DeviceObservation::new("", "", 1, Default::default()))
        .collect();
    let live_shard = |user: &mut FleetUser, observations: &mut [DeviceObservation]| {
        for (idx, obs) in (0..USERS).zip(observations.iter_mut()) {
            user.renew(idx, &root);
            let d = &user.device;
            obs.reset(&d.name, &d.manufacturer, d.ram_mib, user.pattern);
            for s in 0..MEASURE_SECS {
                obs.record(&user.step_1s(SimTime::from_secs(s)));
            }
        }
    };
    let user = &mut users[0];
    live_shard(user, &mut observations);
    let first = serde_json::to_string(&observations).unwrap();
    let n = count_allocs(|| live_shard(user, &mut observations));
    assert_eq!(
        n, 0,
        "a warm renew, reset and {MEASURE_SECS} s of stepping allocated {n} times"
    );
    assert_eq!(serde_json::to_string(&observations).unwrap(), first);

    // A whole shard at the million-user shape, cold: construction,
    // stepping and fold. Built fresh for every user, this shard made 38.6
    // allocations per user; one user and one observation renewed for
    // every user leave 4.5 (1,149 in all), a count that repeats exactly
    // for a seed.
    const SHARD: u32 = 256;
    let cfg = FleetConfig::scaled(SHARD, 7, 0.008, 0.0008);
    let mut agg = FleetAggregate::new();
    let n = count_allocs(|| agg = simulate_range(&cfg, 0..SHARD));
    let per_user = n as f64 / f64::from(SHARD);
    assert!(
        per_user <= 8.0,
        "a {SHARD}-user shard allocated {per_user:.2} times per user"
    );
    let mut reference = FleetAggregate::new();
    for i in 0..SHARD {
        let (obs, hours) = simulate_user(&cfg, i);
        reference.fold(&cfg, i, &obs, hours);
    }
    assert_eq!(
        serde_json::to_string(&agg).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "the recycled shard must fold byte-identically to fresh users"
    );
}
