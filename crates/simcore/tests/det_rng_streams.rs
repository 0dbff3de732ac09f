//! `DetRng`'s streams, pinned by value.
//!
//! Every seeded workload, arrival process and jitter model in the workspace
//! draws from `DetRng`, so a changed stream moves every committed result.
//! The other tests compare a stream with itself; this one compares it with
//! literals. Each seed checks the raw words, the three float/integer draws,
//! a shuffle and a weighted pick, in that order on one generator. The fork
//! value also pins `DefaultHasher`: if the standard library changes its
//! hash, this test is where it shows.

use faasbatch_simcore::rng::DetRng;

struct Pinned {
    seed: u64,
    words: [u64; 4],
    uniform: u64,
    uniform_range: u64,
    uniform_u64: u64,
    shuffle: [u32; 10],
    weighted: usize,
}

const PINNED: [Pinned; 3] = [
    Pinned {
        seed: 0,
        words: [
            5987356902031041503,
            7051070477665621255,
            6633766593972829180,
            211316841551650330,
        ],
        uniform: 0x3fdf_b281_3aeb_d296,
        uniform_range: 0x4008_543c_3775_7f08,
        uniform_u64: 858,
        shuffle: [1, 6, 3, 4, 5, 7, 9, 0, 2, 8],
        weighted: 3,
    },
    Pinned {
        seed: 7,
        words: [
            1021219803524665661,
            3174977118032272916,
            13236943193235544178,
            7880630202246103356,
        ],
        uniform: 0x3fee_d64c_7e5e_af20,
        uniform_range: 0x400f_7385_b627_c22c,
        uniform_u64: 726,
        shuffle: [2, 4, 5, 6, 9, 1, 7, 0, 8, 3],
        weighted: 1,
    },
    Pinned {
        seed: 2023,
        words: [
            17877924213317811824,
            3971462047124456266,
            277028664384285321,
            5853557015669006142,
        ],
        uniform: 0x3fe9_5a3a_a14f_2d95,
        uniform_range: 0x4010_5226_d6c2_7874,
        uniform_u64: 615,
        shuffle: [0, 5, 9, 2, 8, 7, 6, 3, 1, 4],
        weighted: 2,
    },
];

#[test]
fn det_rng_streams_match_their_pinned_values() {
    for p in &PINNED {
        let mut r = DetRng::new(p.seed);
        let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(words, p.words, "seed {}: next_u64", p.seed);
        assert_eq!(r.uniform().to_bits(), p.uniform, "seed {}: uniform", p.seed);
        assert_eq!(
            r.uniform_range(3.0, 5.0).to_bits(),
            p.uniform_range,
            "seed {}: uniform_range(3, 5)",
            p.seed
        );
        assert_eq!(
            r.uniform_u64(10, 1000),
            p.uniform_u64,
            "seed {}: uniform_u64(10, 1000)",
            p.seed
        );
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, p.shuffle, "seed {}: shuffle of 0..10", p.seed);
        assert_eq!(
            r.weighted_index(&[1.0, 2.0, 3.0, 4.0]),
            p.weighted,
            "seed {}: weighted_index",
            p.seed
        );
    }
}

#[test]
fn a_forked_stream_matches_its_pinned_value() {
    assert_eq!(
        DetRng::new(7).fork("arrivals").next_u64(),
        1232143092926594734
    );
}
