//! The two kernels no paper app provides: a lock storm (protocol-bound) and
//! a wait/notify ping-pong (latency-bound), each with a closed-form
//! reference.

use jsplit_apps::common::{spawn_join_all, thread_ctor};
use jsplit_mjvm::builder::ProgramBuilder;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::instr::{Cmp, ElemTy, Ty};

/// Largest per-thread increment [`lockstorm_increments`] hands out; keeps
/// `threads · iters · MAX_INCREMENT` inside the kernel's `i32` accumulator
/// at every scale the benchmark runs.
const MAX_INCREMENT: i32 = 100;

/// Per-thread increments drawn from `seed` (the only thing the seed changes:
/// the lock traffic is the same for every seed, the printed total is not).
pub fn lockstorm_increments(seed: u64, threads: i32) -> Vec<i32> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..threads)
        .map(|_| {
            // SplitMix64 step: well mixed even for seeds 0, 1, 2, ...
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            1 + (z % MAX_INCREMENT as u64) as i32
        })
        .collect()
}

/// `increments.len()` threads each call `synchronized acc.add(inc)` `iters`
/// times on one shared accumulator; main prints the total.
pub fn lockstorm_program(increments: &[i32], iters: i32) -> Program {
    let threads = increments.len() as i32;
    let incs = increments.to_vec();
    let mut pb = ProgramBuilder::new("storm.Main");
    pb.class("storm.Acc", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("total", Ty::I32);
        cb.synchronized_method("add", &[Ty::I32], None, |m| {
            m.load(0)
                .load(0)
                .getfield("storm.Acc", "total")
                .load(1)
                .iadd()
                .putfield("storm.Acc", "total")
                .ret();
        });
        cb.synchronized_method("get", &[], Some(Ty::I32), |m| {
            m.load(0).getfield("storm.Acc", "total").ret_val();
        });
    });
    pb.class("storm.W", "java.lang.Thread", |cb| {
        cb.field("acc", Ty::Ref).field("inc", Ty::I32);
        thread_ctor(cb, "storm.W", &[("acc", Ty::Ref), ("inc", Ty::I32)]);
        cb.method("run", &[], None, move |m| {
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(1);
            m.bind(top);
            m.load(1).const_i32(iters).if_icmp(Cmp::Ge, end);
            m.load(0)
                .getfield("storm.W", "acc")
                .load(0)
                .getfield("storm.W", "inc")
                .invokevirtual("add", &[Ty::I32], None);
            m.iinc(1, 1).goto(top);
            m.bind(end).ret();
        });
    });
    pb.class("storm.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            // locals: 0=acc, 1=workers, 2=idx, 3=increment table
            m.construct("storm.Acc", &[], |_| {}).store(0);
            m.const_i32(threads).newarray(ElemTy::Ref).store(1);
            m.const_i32(threads).newarray(ElemTy::I32).store(3);
            for (i, inc) in incs.iter().enumerate() {
                m.load(3)
                    .const_i32(i as i32)
                    .const_i32(*inc)
                    .astore(ElemTy::I32);
            }
            spawn_join_all(m, threads, 1, 2, |m| {
                m.construct("storm.W", &[Ty::Ref, Ty::I32], |m| {
                    m.load(0).load(3).load(2).aload(ElemTy::I32);
                });
            });
            m.load(0)
                .invokevirtual("get", &[], Some(Ty::I32))
                .println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Closed form for [`lockstorm_program`]'s printed total.
pub fn lockstorm_reference(increments: &[i32], iters: i32) -> i64 {
    increments.iter().map(|&i| i as i64).sum::<i64>() * iters as i64
}

/// Producer/consumer over a one-slot box with `wait`/`notifyAll`: the
/// producer puts `base`, `base+1`, … for `rounds` rounds, main takes each
/// and prints the sum. Every round is a lock hand-off in each direction.
pub fn pingpong_program(rounds: i32, base: i32) -> Program {
    let mut pb = ProgramBuilder::new("pp.Main");
    pb.class("pp.Chan", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("value", Ty::I32).field("full", Ty::I32);
        cb.synchronized_method("put", &[Ty::I32], None, |m| {
            let top = m.new_label();
            let go = m.new_label();
            m.bind(top);
            m.load(0).getfield("pp.Chan", "full").if_i(Cmp::Eq, go);
            m.load(0).invokevirtual("wait", &[], None);
            m.goto(top);
            m.bind(go);
            m.load(0).load(1).putfield("pp.Chan", "value");
            m.load(0).const_i32(1).putfield("pp.Chan", "full");
            m.load(0).invokevirtual("notifyAll", &[], None);
            m.ret();
        });
        cb.synchronized_method("take", &[], Some(Ty::I32), |m| {
            let top = m.new_label();
            let go = m.new_label();
            m.bind(top);
            m.load(0).getfield("pp.Chan", "full").if_i(Cmp::Ne, go);
            m.load(0).invokevirtual("wait", &[], None);
            m.goto(top);
            m.bind(go);
            m.load(0).const_i32(0).putfield("pp.Chan", "full");
            m.load(0).invokevirtual("notifyAll", &[], None);
            m.load(0).getfield("pp.Chan", "value").ret_val();
        });
    });
    pb.class("pp.Producer", "java.lang.Thread", |cb| {
        cb.field("chan", Ty::Ref)
            .field("n", Ty::I32)
            .field("base", Ty::I32);
        thread_ctor(
            cb,
            "pp.Producer",
            &[("chan", Ty::Ref), ("n", Ty::I32), ("base", Ty::I32)],
        );
        cb.method("run", &[], None, |m| {
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(1);
            m.bind(top);
            m.load(1)
                .load(0)
                .getfield("pp.Producer", "n")
                .if_icmp(Cmp::Ge, end);
            m.load(0).getfield("pp.Producer", "chan");
            m.load(0).getfield("pp.Producer", "base").load(1).iadd();
            m.invokevirtual("put", &[Ty::I32], None);
            m.iinc(1, 1).goto(top);
            m.bind(end).ret();
        });
    });
    pb.class("pp.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            // locals: 0=chan, 1=sum, 2=i
            m.construct("pp.Chan", &[], |_| {}).store(0);
            m.construct("pp.Producer", &[Ty::Ref, Ty::I32, Ty::I32], |m| {
                m.load(0).const_i32(rounds).const_i32(base);
            })
            .invokevirtual("start", &[], None);
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(1).const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(rounds).if_icmp(Cmp::Ge, end);
            m.load(1)
                .load(0)
                .invokevirtual("take", &[], Some(Ty::I32))
                .iadd()
                .store(1);
            m.iinc(2, 1).goto(top);
            m.bind(end).load(1).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Closed form for [`pingpong_program`]'s printed sum.
pub fn pingpong_reference(rounds: i32, base: i32) -> i64 {
    let r = rounds as i64;
    r * (r - 1) / 2 + r * base as i64
}

/// Closed form for `micro::block_array_kernel(len, threads)`: element
/// `id·block + j` holds `id·1000 + j`.
pub fn bulk_reference(len: i32, threads: i32) -> i64 {
    let block = (len / threads) as i64;
    (0..threads as i64)
        .map(|id| id * 1000 * block + block * (block - 1) / 2)
        .sum()
}

/// Native replica of `series::program`'s arithmetic, operation for
/// operation (same trapezoid loop, same summation order), so the printed
/// checksum can be recomputed without running the interpreter.
pub fn series_reference(n: i32, intervals: i32) -> i64 {
    let dx = 2.0 / intervals as f64;
    let integrate = |coeff: i32, use_sin: bool| -> f64 {
        let mut sum = 0.0f64;
        for i in 0..=intervals {
            let x = i as f64 * dx;
            let arg = std::f64::consts::PI * coeff as f64 * x;
            let mut fx = (x + 1.0).powf(x) * if use_sin { arg.sin() } else { arg.cos() };
            if i == 0 || i == intervals {
                fx *= 0.5;
            }
            sum += fx;
        }
        sum * dx
    };
    let mut chk = 0.0f64;
    for coeff in 0..n {
        chk += integrate(coeff, false).abs();
        chk += integrate(coeff, true).abs();
    }
    (chk * 1000.0) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_apps::{micro, series};
    use jsplit_mjvm::localvm::run_program;

    fn local_output(p: &Program) -> Vec<String> {
        let r = run_program(p);
        assert!(r.errors.is_empty() && !r.deadlocked, "{:?}", r.errors);
        r.output
    }

    #[test]
    fn lockstorm_closed_form_matches_localvm() {
        let incs = lockstorm_increments(7, 4);
        assert!(incs.iter().all(|&i| (1..=MAX_INCREMENT).contains(&i)));
        assert_ne!(
            incs,
            lockstorm_increments(8, 4),
            "the seed must reach the inputs"
        );
        assert_eq!(
            local_output(&lockstorm_program(&incs, 50)),
            vec![lockstorm_reference(&incs, 50).to_string()]
        );
    }

    #[test]
    fn pingpong_closed_form_matches_localvm() {
        assert_eq!(
            local_output(&pingpong_program(40, 17)),
            vec![pingpong_reference(40, 17).to_string()]
        );
    }

    #[test]
    fn bulk_closed_form_matches_localvm() {
        assert_eq!(
            local_output(&micro::block_array_kernel(64, 4)),
            vec![bulk_reference(64, 4).to_string()]
        );
    }

    #[test]
    fn series_replica_matches_localvm_and_the_pinned_value() {
        let p = series::SeriesParams {
            n: 12,
            intervals: 40,
            threads: 3,
        };
        assert_eq!(
            local_output(&series::program(p)),
            vec![series_reference(12, 40).to_string()]
        );
        // The full-scale checksum named in the issue.
        assert_eq!(series_reference(256, 4000), 22599);
    }
}
