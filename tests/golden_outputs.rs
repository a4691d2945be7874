//! Golden output digests of the whole pipeline on a fixed corpus.
//!
//! Each entry is the [`hca_serve::summarise`] digest of one compilation:
//! sorted placement, final-program placement, the full MII report and the
//! run statistics (`see_states` included). A change meant to preserve
//! output — a refactor, a deleted fast path, a faster data structure — must
//! leave every digest unchanged. A change that alters results on purpose
//! re-records the table (the failure message prints it ready to paste) and
//! says why in its description.
//!
//! The tier-1 set runs on every `cargo test`; the heavy set (large
//! synthetics, the wide portfolio on synthetic512, 300 fuzz seeds) runs
//! under `cargo test --release --test golden_outputs -- --ignored`.

use hca_repro::arch::DspFabric;
use hca_repro::check::random_kernel;
use hca_repro::ddg::Ddg;
use hca_repro::hca::{run_hca, run_hca_portfolio, HcaConfig, HcaError, HcaResult, PortfolioConfig};
use hca_repro::kernels::{dspstone, synthetic::scaling_family, table1_kernels};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator seed of the pinned large synthetics (the benchmark's seed).
const SYNTHETIC_SEED: u64 = 0xB5E7;

fn digest(name: &str, ddg: &Ddg, res: Result<HcaResult, HcaError>) -> (String, String) {
    let res = res.unwrap_or_else(|e| panic!("{name}: {e}"));
    (
        name.to_string(),
        hca_serve::summarise(name, ddg, &res).digest,
    )
}

fn exact_small() -> HcaConfig {
    HcaConfig {
        portfolio: PortfolioConfig::exact_small(),
        ..HcaConfig::default()
    }
}

fn dspstone_kernels() -> Vec<(&'static str, Ddg)> {
    vec![
        ("fir8", dspstone::fir(8)),
        ("biquad", dspstone::biquad()),
        ("matvec8", dspstone::matvec_row(8)),
        ("dot_product", dspstone::dot_product()),
        ("n_real_updates", dspstone::n_real_updates(4)),
        ("convolution", dspstone::convolution(8)),
        ("lms", dspstone::lms(8)),
        ("matrix1x3", dspstone::matrix1x3()),
    ]
}

/// Beam-only runs of `count` fuzz kernels of at most `max_nodes` nodes on
/// the fuzz gauntlet's two-level fabric.
fn fuzz_digests(count: u64, max_nodes: usize) -> Vec<(String, String)> {
    let fabric = DspFabric::two_level(4, 4, 4);
    (0..count)
        .map(|seed| {
            let ddg = random_kernel(&mut StdRng::seed_from_u64(seed), max_nodes);
            let name = format!("fuzz{max_nodes}/{seed}");
            digest(&name, &ddg, run_hca(&ddg, &fabric, &HcaConfig::default()))
        })
        .collect()
}

/// Compare recomputed digests against the table; on any difference, fail
/// with the list of changed entries and the full recomputed table.
fn check(got: &[(String, String)], want: &[(&str, &str)]) {
    let changed: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((gn, gd), (wn, wd))| gn != wn || gd != wd)
        .map(|((gn, gd), (wn, wd))| format!("  {wn}: {wd} -> {gn}: {gd}"))
        .collect();
    if changed.is_empty() && got.len() == want.len() {
        return;
    }
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", \"{d}\"),\n"))
        .collect();
    panic!(
        "{} of {} golden digests changed ({} recomputed, {} recorded):\n{}\nrecomputed table:\n{table}",
        changed.len(),
        want.len(),
        got.len(),
        want.len(),
        changed.join("\n")
    );
}

#[test]
fn table1_and_dspstone_digests_are_unchanged() {
    let fabric = DspFabric::standard(8, 8, 8);
    let mut got = Vec::new();
    for k in table1_kernels() {
        let name = format!("{}/default", k.name);
        got.push(digest(
            &name,
            &k.ddg,
            run_hca(&k.ddg, &fabric, &HcaConfig::default()),
        ));
        let name = format!("{}/exact_small", k.name);
        got.push(digest(
            &name,
            &k.ddg,
            run_hca(&k.ddg, &fabric, &exact_small()),
        ));
    }
    for (name, ddg) in dspstone_kernels() {
        let name = format!("{name}/exact_small");
        got.push(digest(&name, &ddg, run_hca(&ddg, &fabric, &exact_small())));
    }
    let fir2dim = hca_repro::kernels::fir2dim::build().ddg;
    got.push(digest(
        "fir2dim/portfolio",
        &fir2dim,
        run_hca_portfolio(&fir2dim, &fabric),
    ));
    check(&got, TIER1_KERNELS);
}

#[test]
fn small_fuzz_digests_are_unchanged() {
    check(&fuzz_digests(40, 24), TIER1_FUZZ);
}

#[test]
#[ignore = "heavy: run in release with --ignored"]
fn large_synthetic_digests_are_unchanged() {
    let fabric = DspFabric::standard(8, 8, 8);
    let mut got = Vec::new();
    for (n, ddg) in scaling_family(&[256, 512, 768], SYNTHETIC_SEED) {
        let name = format!("synthetic{n}/default");
        got.push(digest(
            &name,
            &ddg,
            run_hca(&ddg, &fabric, &HcaConfig::default()),
        ));
        if n == 512 {
            got.push(digest(
                "synthetic512/portfolio",
                &ddg,
                run_hca_portfolio(&ddg, &fabric),
            ));
        }
    }
    check(&got, HEAVY_SYNTHETIC);
}

#[test]
#[ignore = "heavy: run in release with --ignored"]
fn fuzz_corpus_digests_are_unchanged() {
    check(&fuzz_digests(300, 40), HEAVY_FUZZ);
}

const TIER1_KERNELS: &[(&str, &str)] = &[
    ("fir2dim/default", "101b76c8031376ba"),
    ("fir2dim/exact_small", "5d3eeb9b66e3e7c4"),
    ("idcthor/default", "2cf9332b8ba7401a"),
    ("idcthor/exact_small", "79a4894734b8634b"),
    ("mpeg2inter/default", "4f3fbf4eb3d5ee31"),
    ("mpeg2inter/exact_small", "9400d997fbc17889"),
    ("h264deblocking/default", "eb51eda3c22d9598"),
    ("h264deblocking/exact_small", "45a99c180a5cad2f"),
    ("fir8/exact_small", "0e109f23469457ad"),
    ("biquad/exact_small", "09f8d13c0a4fb69c"),
    ("matvec8/exact_small", "83cb8ee4a0edc8fb"),
    ("dot_product/exact_small", "f91f2085bd3978ff"),
    ("n_real_updates/exact_small", "91d79c413a5730f7"),
    ("convolution/exact_small", "f5d3027605d14d55"),
    ("lms/exact_small", "a4b5935071ad610b"),
    ("matrix1x3/exact_small", "1c8a8c664874df20"),
    ("fir2dim/portfolio", "94da093833d47dbc"),
];

const TIER1_FUZZ: &[(&str, &str)] = &[
    ("fuzz24/0", "7c88f883f32b1699"),
    ("fuzz24/1", "9d4a496e41a8dd21"),
    ("fuzz24/2", "032a70e178e0b931"),
    ("fuzz24/3", "d4cd9194a55f701b"),
    ("fuzz24/4", "071cd8816f8815fd"),
    ("fuzz24/5", "ec87b30bb68d1cb7"),
    ("fuzz24/6", "491c5c705c1b2780"),
    ("fuzz24/7", "718b7a1d34965bda"),
    ("fuzz24/8", "ee277b47e895ceb6"),
    ("fuzz24/9", "acecb763fa04c59b"),
    ("fuzz24/10", "15824de6ebaae354"),
    ("fuzz24/11", "e5d4d4d79597c520"),
    ("fuzz24/12", "df5b1b1c1fee335e"),
    ("fuzz24/13", "ad1d83c02431a4c5"),
    ("fuzz24/14", "7a0e34ddabd96d68"),
    ("fuzz24/15", "3720dca2e3d73263"),
    ("fuzz24/16", "06cd369a5fac4217"),
    ("fuzz24/17", "3772097602c8a896"),
    ("fuzz24/18", "e9ed2fe5f85f2336"),
    ("fuzz24/19", "326e9281d64735fe"),
    ("fuzz24/20", "14f20f78d5ea3df9"),
    ("fuzz24/21", "83ceaaaef732172a"),
    ("fuzz24/22", "fd0a525ea9e942ff"),
    ("fuzz24/23", "8fb560379381230e"),
    ("fuzz24/24", "a165264c33f514e4"),
    ("fuzz24/25", "ec0ee211f19eeccb"),
    ("fuzz24/26", "ac98f093fab55e52"),
    ("fuzz24/27", "d4a217fbc06f631d"),
    ("fuzz24/28", "e98643c6072c0d8d"),
    ("fuzz24/29", "ee62b2252ee753e0"),
    ("fuzz24/30", "af929ce07a401652"),
    ("fuzz24/31", "bf91db7bc2950065"),
    ("fuzz24/32", "258cc5517558c2f5"),
    ("fuzz24/33", "50c2e30779b536e8"),
    ("fuzz24/34", "2b7ce6476bc9a34b"),
    ("fuzz24/35", "104f0c0b31030758"),
    ("fuzz24/36", "52f2cec9d61a2ed6"),
    ("fuzz24/37", "cdf1f6c0ad202441"),
    ("fuzz24/38", "da355c411b95bb24"),
    ("fuzz24/39", "f5024bbb354eb3ab"),
];

const HEAVY_SYNTHETIC: &[(&str, &str)] = &[
    ("synthetic256/default", "a5c18dc7e35dd1dc"),
    ("synthetic512/default", "b8b860cc8b77c78e"),
    ("synthetic512/portfolio", "99e889141f9fd9d9"),
    ("synthetic768/default", "10c640bf938edde6"),
];

const HEAVY_FUZZ: &[(&str, &str)] = &[
    ("fuzz40/0", "1c54f68a8ec0fbc6"),
    ("fuzz40/1", "2265bf1fcbf2e153"),
    ("fuzz40/2", "9a71b72ea3a8ed54"),
    ("fuzz40/3", "becb23459bd4b2e6"),
    ("fuzz40/4", "905c7d98dbff7e16"),
    ("fuzz40/5", "ddbb670a4df532df"),
    ("fuzz40/6", "6920b9d08795bd05"),
    ("fuzz40/7", "718b7a1d34965bda"),
    ("fuzz40/8", "58d877a22078eccc"),
    ("fuzz40/9", "577ac4be60e51170"),
    ("fuzz40/10", "9f26b8b618fbe44d"),
    ("fuzz40/11", "2aa14522df18ef55"),
    ("fuzz40/12", "3d5ae9e150fc4389"),
    ("fuzz40/13", "90d8695ce16c6af1"),
    ("fuzz40/14", "90363d86274ab439"),
    ("fuzz40/15", "1b8bb7fcd3c94ded"),
    ("fuzz40/16", "14910941a832ab01"),
    ("fuzz40/17", "ec86d63932921e6d"),
    ("fuzz40/18", "f796498351be75b5"),
    ("fuzz40/19", "2a29b2fc7bcefb84"),
    ("fuzz40/20", "7b947181d825bdde"),
    ("fuzz40/21", "431645a9a0dfe46e"),
    ("fuzz40/22", "4b0e516b149643d7"),
    ("fuzz40/23", "c120306ac0041011"),
    ("fuzz40/24", "65f25200725e8029"),
    ("fuzz40/25", "4c10ec6076fa4d9a"),
    ("fuzz40/26", "f04a9b1ffbd5193d"),
    ("fuzz40/27", "c9a835ac029d38d1"),
    ("fuzz40/28", "51f0ca536035c546"),
    ("fuzz40/29", "2e6401d2ed11c7f7"),
    ("fuzz40/30", "b983873dec84b037"),
    ("fuzz40/31", "70a4113f02c36aed"),
    ("fuzz40/32", "670cbfa7267b201e"),
    ("fuzz40/33", "f274a18f7775a50d"),
    ("fuzz40/34", "4ae0e5d77f5f99ee"),
    ("fuzz40/35", "104f0c0b31030758"),
    ("fuzz40/36", "75dd2ce362663b2e"),
    ("fuzz40/37", "f76c0331dfb4a3ad"),
    ("fuzz40/38", "23836bc76e0d8106"),
    ("fuzz40/39", "178cd8a7b736675e"),
    ("fuzz40/40", "71dcf9f2e44c09e8"),
    ("fuzz40/41", "2252f1e40de245db"),
    ("fuzz40/42", "5b9c37239fee12c5"),
    ("fuzz40/43", "5d57f38a3a301bdd"),
    ("fuzz40/44", "b4241deeb21fcfdd"),
    ("fuzz40/45", "27708518bd1173ff"),
    ("fuzz40/46", "5ae6897471c66489"),
    ("fuzz40/47", "ab14bd5ef8833636"),
    ("fuzz40/48", "7cf1c7ddfbea8bb4"),
    ("fuzz40/49", "c1f501f1ad3ab5aa"),
    ("fuzz40/50", "dc1024297d93366d"),
    ("fuzz40/51", "b24ee119959e10d1"),
    ("fuzz40/52", "bf435a8aeaa1bc60"),
    ("fuzz40/53", "957a39e491b208c2"),
    ("fuzz40/54", "1021dccdd9dd451e"),
    ("fuzz40/55", "46e549e133571d64"),
    ("fuzz40/56", "13570e8608cf0a91"),
    ("fuzz40/57", "3170619949ed0b76"),
    ("fuzz40/58", "404fb9976aa4551b"),
    ("fuzz40/59", "ab4a6405eca9a33c"),
    ("fuzz40/60", "c7471668a8b85af0"),
    ("fuzz40/61", "0e17cbf5ee819154"),
    ("fuzz40/62", "7525c71d8058c0da"),
    ("fuzz40/63", "be28bf4680397a46"),
    ("fuzz40/64", "ca446ca0f5bb0f55"),
    ("fuzz40/65", "f8557efd3d05a44d"),
    ("fuzz40/66", "1e9b2c855213d708"),
    ("fuzz40/67", "e6de84e3c219268a"),
    ("fuzz40/68", "ed284ab9862db9ce"),
    ("fuzz40/69", "ff15bf3c4ec5f054"),
    ("fuzz40/70", "f7684a7e2cb6221a"),
    ("fuzz40/71", "b15680f247bf60bb"),
    ("fuzz40/72", "819d9ddbbb3215e4"),
    ("fuzz40/73", "fb70df4cbafc51d9"),
    ("fuzz40/74", "5c7762992086e4de"),
    ("fuzz40/75", "b5a02058940e9acd"),
    ("fuzz40/76", "d072f1b174f5247d"),
    ("fuzz40/77", "fc45eac607fb7827"),
    ("fuzz40/78", "a1b3b052f8fdc5f2"),
    ("fuzz40/79", "cc01d57cf8e7d444"),
    ("fuzz40/80", "80235588d5acc5fd"),
    ("fuzz40/81", "7fb462b0d9867715"),
    ("fuzz40/82", "591c0b077b8e7a3a"),
    ("fuzz40/83", "f1d3b7442f4fff5d"),
    ("fuzz40/84", "b2acf91db7f2a031"),
    ("fuzz40/85", "3832c395ba5289d5"),
    ("fuzz40/86", "95036afd7317d0b7"),
    ("fuzz40/87", "44ff84f7543f7a72"),
    ("fuzz40/88", "aaaacf737902024b"),
    ("fuzz40/89", "7849d3d067d5f534"),
    ("fuzz40/90", "bc9e6e089a5375b4"),
    ("fuzz40/91", "5f52e14c8273a222"),
    ("fuzz40/92", "a7e04f62317e0428"),
    ("fuzz40/93", "c3a6d3845b9724a2"),
    ("fuzz40/94", "f0e71d26db40924c"),
    ("fuzz40/95", "686c79c5e2453b4b"),
    ("fuzz40/96", "a76ac64c8020b5d1"),
    ("fuzz40/97", "a9ef18259990be2d"),
    ("fuzz40/98", "5b27108283ae7d4f"),
    ("fuzz40/99", "a503a5edb0390dce"),
    ("fuzz40/100", "ae33f5a56f2f251c"),
    ("fuzz40/101", "df62f62400171c8a"),
    ("fuzz40/102", "5bee2ad37157f661"),
    ("fuzz40/103", "069fe7d961f5ec2d"),
    ("fuzz40/104", "d14d8fe6ff57d815"),
    ("fuzz40/105", "44cd87fd1fea32ca"),
    ("fuzz40/106", "89fbfe44332a3738"),
    ("fuzz40/107", "f20399db994ae471"),
    ("fuzz40/108", "40ce01b1edd0b528"),
    ("fuzz40/109", "1ee106ce3f53b891"),
    ("fuzz40/110", "173b4b0e4239a19d"),
    ("fuzz40/111", "da629b570e709497"),
    ("fuzz40/112", "9ccdc25ed979d424"),
    ("fuzz40/113", "da355c411b95bb24"),
    ("fuzz40/114", "64172acdbabcfaea"),
    ("fuzz40/115", "2da0a5f6b6cd3b1a"),
    ("fuzz40/116", "88de2333ae363086"),
    ("fuzz40/117", "1bdd3dc3ca1f62d8"),
    ("fuzz40/118", "83c184c654576b09"),
    ("fuzz40/119", "e2695ad351ce349a"),
    ("fuzz40/120", "8731584f041cc635"),
    ("fuzz40/121", "18358f34678f8f76"),
    ("fuzz40/122", "8f8f1d9835ba7210"),
    ("fuzz40/123", "94e80625bbd40620"),
    ("fuzz40/124", "e39e2d74fd01e812"),
    ("fuzz40/125", "5dfd7a525e9a0aa0"),
    ("fuzz40/126", "a3494178ab09d56f"),
    ("fuzz40/127", "5d551dd7f5d72811"),
    ("fuzz40/128", "e00a415fa38fe840"),
    ("fuzz40/129", "d3d42576b6743700"),
    ("fuzz40/130", "ef9383a561a10b20"),
    ("fuzz40/131", "79738bb21c7ac07e"),
    ("fuzz40/132", "87dd884cbfeb2f64"),
    ("fuzz40/133", "d2c5dc960e06cc52"),
    ("fuzz40/134", "85d3af7431efeab7"),
    ("fuzz40/135", "f81da2b71ef10388"),
    ("fuzz40/136", "93b14852cdba8010"),
    ("fuzz40/137", "f57a6f573019a154"),
    ("fuzz40/138", "697847475886e2ea"),
    ("fuzz40/139", "43170a81e76428f9"),
    ("fuzz40/140", "c1a2d922cef25d9c"),
    ("fuzz40/141", "893db01a3c6b57a9"),
    ("fuzz40/142", "fd273c2eee2096a7"),
    ("fuzz40/143", "4c27d2a956541692"),
    ("fuzz40/144", "fb59782d112c4fc2"),
    ("fuzz40/145", "2baa20896e86a642"),
    ("fuzz40/146", "c5577730f396c5c1"),
    ("fuzz40/147", "e5abf9e73f623fcc"),
    ("fuzz40/148", "9f1a0cfeab1581c9"),
    ("fuzz40/149", "51d7bd193d1f4892"),
    ("fuzz40/150", "5043d5be40638584"),
    ("fuzz40/151", "fd0a525ea9e942ff"),
    ("fuzz40/152", "87abc9eff6c67b52"),
    ("fuzz40/153", "a56765f9f0b6e06c"),
    ("fuzz40/154", "bca2ca724f993f37"),
    ("fuzz40/155", "87d1c51e9317f13c"),
    ("fuzz40/156", "7ab27122a78dab2e"),
    ("fuzz40/157", "5bb5e1619845b4f5"),
    ("fuzz40/158", "12b140741d593303"),
    ("fuzz40/159", "8a7bbfe3f1b323a6"),
    ("fuzz40/160", "e792d38e3f1842bd"),
    ("fuzz40/161", "a9d25e0e62744d50"),
    ("fuzz40/162", "71315830f0338d2e"),
    ("fuzz40/163", "895940a36b329163"),
    ("fuzz40/164", "977180f1d5b1296d"),
    ("fuzz40/165", "ba44fa9e95971c37"),
    ("fuzz40/166", "fbbe49dac6f46d75"),
    ("fuzz40/167", "f0129c8ec2812fd5"),
    ("fuzz40/168", "d332b5713256a1d9"),
    ("fuzz40/169", "c583d52a5d126c34"),
    ("fuzz40/170", "c9bd41a3eae7516f"),
    ("fuzz40/171", "f1b15a0e53eee320"),
    ("fuzz40/172", "0b66b4a5ae31a3c8"),
    ("fuzz40/173", "36f118fa968c9732"),
    ("fuzz40/174", "2d7a6d8739472ed4"),
    ("fuzz40/175", "779d9f17cedd7fb0"),
    ("fuzz40/176", "f145738a334f3af6"),
    ("fuzz40/177", "a281677d179a9c0a"),
    ("fuzz40/178", "1127e948ebaa4ad4"),
    ("fuzz40/179", "4341aa5a3c84180a"),
    ("fuzz40/180", "07425c082078c55f"),
    ("fuzz40/181", "812ed585f9336baa"),
    ("fuzz40/182", "cfecdfd9c80426a3"),
    ("fuzz40/183", "4135f057fc5a522e"),
    ("fuzz40/184", "acbedce64020598c"),
    ("fuzz40/185", "82617eac52fda32e"),
    ("fuzz40/186", "48bdb93a0074cf89"),
    ("fuzz40/187", "8cb5c867705b5c3f"),
    ("fuzz40/188", "4703ae45546a7e28"),
    ("fuzz40/189", "20a566a167a956fc"),
    ("fuzz40/190", "6808ee69d5a792be"),
    ("fuzz40/191", "e78b67592e08a51d"),
    ("fuzz40/192", "cecff3aea295dd2b"),
    ("fuzz40/193", "f73895106724ff76"),
    ("fuzz40/194", "08dcf556c8cace90"),
    ("fuzz40/195", "b2414cce7035cd79"),
    ("fuzz40/196", "2695692771ff3d4a"),
    ("fuzz40/197", "33dc25a974e825a6"),
    ("fuzz40/198", "284ab274ef3047f8"),
    ("fuzz40/199", "36fc2b30ef44afd6"),
    ("fuzz40/200", "bdc9f0c5bb16571f"),
    ("fuzz40/201", "19153f018dd61f5a"),
    ("fuzz40/202", "77c608a6c345babf"),
    ("fuzz40/203", "216a3b2db6b3a165"),
    ("fuzz40/204", "293b1f717590388e"),
    ("fuzz40/205", "2bc74c28facebd63"),
    ("fuzz40/206", "565cecdb3f96d630"),
    ("fuzz40/207", "1efa0b0c2f2bd80a"),
    ("fuzz40/208", "2627a1887b72da67"),
    ("fuzz40/209", "4af380ad132e3fac"),
    ("fuzz40/210", "38271cbe520d1c56"),
    ("fuzz40/211", "cc61982764916fe3"),
    ("fuzz40/212", "d8fa1d3f59550af9"),
    ("fuzz40/213", "7eeeb01d7911d0eb"),
    ("fuzz40/214", "0be3955ac04b3850"),
    ("fuzz40/215", "902bc6755425d36d"),
    ("fuzz40/216", "2ca39a8fbcb970f7"),
    ("fuzz40/217", "aad8d6a4ca5f0d6f"),
    ("fuzz40/218", "981dff293b1fb539"),
    ("fuzz40/219", "07c574db0db88393"),
    ("fuzz40/220", "bd4c51f9da37ed16"),
    ("fuzz40/221", "a645d0c737f6f12b"),
    ("fuzz40/222", "c6a28441e6ce7d26"),
    ("fuzz40/223", "16cd57e23bdced6c"),
    ("fuzz40/224", "10c0b20729575868"),
    ("fuzz40/225", "3dbc538dfb90f50b"),
    ("fuzz40/226", "fd0a525ea9e942ff"),
    ("fuzz40/227", "d69df2810d0d7636"),
    ("fuzz40/228", "f40f01e0d3584db5"),
    ("fuzz40/229", "04b0d572bdd58080"),
    ("fuzz40/230", "b2f857a8c3fc27f5"),
    ("fuzz40/231", "51b56aed50b6a2fc"),
    ("fuzz40/232", "6b2ea614a169d31f"),
    ("fuzz40/233", "c948c9e0de5b627c"),
    ("fuzz40/234", "a8f966072311ae4f"),
    ("fuzz40/235", "0ddb05788285ab65"),
    ("fuzz40/236", "ac6d33a2561e2b84"),
    ("fuzz40/237", "5695d0719b6f6e6b"),
    ("fuzz40/238", "8538c609240aecac"),
    ("fuzz40/239", "580be5f8bf39df2a"),
    ("fuzz40/240", "488a48b0e52a020b"),
    ("fuzz40/241", "6b78794013dfad6a"),
    ("fuzz40/242", "eb57c257a5cf08ea"),
    ("fuzz40/243", "bbc78915b917148e"),
    ("fuzz40/244", "91a512b19d53fecd"),
    ("fuzz40/245", "39f780eb1f9422eb"),
    ("fuzz40/246", "34196410fc28f05b"),
    ("fuzz40/247", "7cfc766ed758523f"),
    ("fuzz40/248", "3156b35a8f7c48fd"),
    ("fuzz40/249", "8a543050bd74eb1c"),
    ("fuzz40/250", "c6f38fc63dc0dfda"),
    ("fuzz40/251", "07b8372f80e1e257"),
    ("fuzz40/252", "163d40e713cb30d5"),
    ("fuzz40/253", "8af9cf57760f9e63"),
    ("fuzz40/254", "f418cf316b794111"),
    ("fuzz40/255", "ece573064b5a012d"),
    ("fuzz40/256", "5c8df62312d60154"),
    ("fuzz40/257", "4a09ff316e2b154c"),
    ("fuzz40/258", "d77bcfba00be3987"),
    ("fuzz40/259", "058f50d5730e39a2"),
    ("fuzz40/260", "b44cd6e8c4fc2565"),
    ("fuzz40/261", "9f72e153dbcd9e3b"),
    ("fuzz40/262", "2c0ec47b3299d6d7"),
    ("fuzz40/263", "076564130ae123ce"),
    ("fuzz40/264", "315eab100b2f5340"),
    ("fuzz40/265", "930e7077f64f9b1c"),
    ("fuzz40/266", "4a9cbb1fa57b58a2"),
    ("fuzz40/267", "9670b66739786c9f"),
    ("fuzz40/268", "6854eafcfd6a6ef4"),
    ("fuzz40/269", "cf65dd72c62d75db"),
    ("fuzz40/270", "98db5a6c7a5b0fb7"),
    ("fuzz40/271", "25128f9f9e758fd2"),
    ("fuzz40/272", "a9795f74274e2e2b"),
    ("fuzz40/273", "9de89b752945624d"),
    ("fuzz40/274", "96edccfc81cbefda"),
    ("fuzz40/275", "aacdcc6b99319827"),
    ("fuzz40/276", "13613a35aa92adaa"),
    ("fuzz40/277", "e30e4780b9aeb9cd"),
    ("fuzz40/278", "5da0a65ae7ed1426"),
    ("fuzz40/279", "a96bb18ff59ad9cc"),
    ("fuzz40/280", "b2b7c1b3af4b6a4a"),
    ("fuzz40/281", "5177abf5eef95a88"),
    ("fuzz40/282", "ffc4c4b2909b5c99"),
    ("fuzz40/283", "faf5fe54e01efb87"),
    ("fuzz40/284", "1bf270a5d0863361"),
    ("fuzz40/285", "8426fa2345f8e764"),
    ("fuzz40/286", "cadb20b9eaf5f025"),
    ("fuzz40/287", "d1c90803ec015918"),
    ("fuzz40/288", "5c88cdf7ae8ed5b0"),
    ("fuzz40/289", "edf5b6fb84fe6797"),
    ("fuzz40/290", "d08c68d317829bec"),
    ("fuzz40/291", "d09195e964218626"),
    ("fuzz40/292", "8ee2dfa113a55e63"),
    ("fuzz40/293", "534541613ead4a72"),
    ("fuzz40/294", "bf3a1ece4a40c221"),
    ("fuzz40/295", "6c37735c738e10e2"),
    ("fuzz40/296", "4be4cd354d8bc313"),
    ("fuzz40/297", "a2cb1c82990f56dd"),
    ("fuzz40/298", "01db41a90cdb4d07"),
    ("fuzz40/299", "07082e7f00d0f518"),
];
