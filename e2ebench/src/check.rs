//! Correctness gate: response fingerprints and the pinned digest of the
//! simulated statistics.

use imc_energy::EnergyParams;
use imc_sim::ExperimentRun;

/// FNV-1a over the response bytes: responses are compared with their
/// reference run through this fingerprint, so the references need not stay
/// resident.
pub fn fingerprint(bytes: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes.as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^ bytes.len() as u64
}

/// Order-sensitive digest of the simulated statistics (cycles, accuracy,
/// parameters and energy per record) of a sequence of runs. Unlike the
/// byte fingerprint it ignores the serialization, so it pins the model, not
/// the format.
#[derive(Debug, Clone, Copy)]
pub struct StatsDigest(u64);

impl Default for StatsDigest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl StatsDigest {
    fn mix(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs every record of a serialized run.
    pub fn absorb(&mut self, jsonl: &str) -> imc_sim::Result<()> {
        let run = ExperimentRun::from_jsonl(jsonl)?;
        let energy = EnergyParams::default();
        for record in run.records() {
            let eval = &record.eval;
            self.mix(fingerprint(&eval.network));
            self.mix(fingerprint(&eval.method));
            self.mix(eval.array_size as u64);
            self.mix(eval.cycles.to_bits());
            self.mix(eval.accuracy.to_bits());
            self.mix(eval.parameters as u64);
            self.mix(record.energy(&energy).to_bits());
        }
        Ok(())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Checks a digest against its pinned value; the pin applies only to the
/// default seed. Returns whether the check passed (or did not apply).
pub fn check_pinned(workload: &str, seed: u64, digest: StatsDigest, pinned: u64) -> bool {
    if seed != crate::specs::DEFAULT_SEED {
        return true;
    }
    if digest.value() == pinned {
        eprintln!("{workload}: simulated-statistics digest {pinned:016x} matches the pin");
        true
    } else {
        eprintln!(
            "{workload}: simulated-statistics digest {:016x} differs from the pinned {pinned:016x}",
            digest.value()
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_similar_inputs() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_ne!(fingerprint(""), fingerprint("\0"));
    }
}
