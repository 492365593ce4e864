//! Golden bitwise regression vectors for the unified spectral-plane core.
//!
//! The vectors were captured at the seed of the engine-unification refactor
//! (PR 5) by running the *pre-refactor* `Workspace` / `ConvWorkspace`
//! pipelines on fixed inputs and recording every output's IEEE-754 bit
//! pattern. The unified engine re-stages the same arithmetic (pack → plane
//! FFT → register-tiled MAC → plane IFFT with fused epilogue), so its
//! outputs must be **bit-identical** — any divergence means the refactor
//! changed the math, not just the plumbing.
//!
//! Scope: the FC forward/transpose applies and the stride-1 conv pipeline,
//! whose per-element accumulation orders are preserved exactly. Strided
//! convs moved from the per-offset gather path onto the fused run-MAC
//! (a different — equally valid — accumulation association), so they are
//! covered by the tolerance-based reference proptests instead.

use circnn_core::{
    BlockCirculantMatrix, CirculantConv2d, CirculantLinear, CirculantRnnCell, ConvWorkspace,
    QuantConfig, QuantWorkspace, RecurrentWorkspace, Workspace,
};
use circnn_nn::{InferScratch, Layer as _};
use circnn_tensor::Tensor;

const GOLDEN_FC_24X40X8_B3: [u32; 72] = [
    0x403E3514, 0x40395630, 0x40482454, 0x403A3E52, 0x403BAC92, 0x4049A4B0, 0x405A53B6, 0x4050ABEE,
    0x4024EB12, 0x402E278E, 0x401653B0, 0x401F13AA, 0x402C0C70, 0x402F6130, 0x40258ADE, 0x402D56D0,
    0x402F7A2C, 0x40181B22, 0x4022E05C, 0x40266EDB, 0x401BB954, 0x4024AD5A, 0x4015B984, 0x4028EC19,
    0x401BB94B, 0x40189F0E, 0x40090E45, 0x402FAC82, 0x401A04AD, 0x40221348, 0x400C5A1F, 0x4029CDEC,
    0x400AA62A, 0x3FFC60D3, 0x400B1BC1, 0x3FFAA94A, 0x3FF3E6DC, 0x4003A9B6, 0x4004736F, 0x3FEDA7E8,
    0x3FF90E82, 0x40044F89, 0x3FF75B64, 0x3FFDA73D, 0x40024E61, 0x40041C9F, 0x3FFE2C9C, 0x3FE01381,
    0x40207BCC, 0x400D7A6E, 0x401D615F, 0x4011B2EA, 0x401DD2B0, 0x4013E948, 0x401E6431, 0x40152C34,
    0x4005F014, 0x3FF9C98B, 0x40039DC9, 0x3FF6C175, 0x4000A772, 0x3FF89A61, 0x40011B2D, 0x40112EE4,
    0x4003A2E5, 0x3FE67022, 0x4003F7BE, 0x3FF793EF, 0x3FFB38E7, 0x3FE899F0, 0x3FFF787C, 0x3FE487B7,
];

const GOLDEN_FC_24X40X8_B3_BWD: [u32; 120] = [
    0x3FA6032C, 0x3F97A1C1, 0x3FA83677, 0x3F9EC3AC, 0x3F8FEB00, 0x3F9C64D3, 0x3FA6B34D, 0x3FA12E58,
    0x3FBEE138, 0x3FBE40FA, 0x3FC4EC9A, 0x3FBB4357, 0x3FAB1B2A, 0x3FBA1B3E, 0x3FD5B598, 0x3FBCA48D,
    0x3FCCECC3, 0x3FBE2516, 0x3FCBF6DC, 0x3FD5275C, 0x3FC878BB, 0x3FB4F49A, 0x3FC61576, 0x3FCC9D8C,
    0x3FBA678B, 0x3FB10625, 0x3FC1D846, 0x3FC3947E, 0x3FB2B1BD, 0x3FAB2845, 0x3FB9DF72, 0x3FD96818,
    0x3FC61BFC, 0x3FB6B17A, 0x3F9A9034, 0x3F8D96E0, 0x3FC05D98, 0x3FBA7ED4, 0x3FA14F64, 0x3FB07C2E,
    0x3FC0777E, 0x3FC45944, 0x3FBEE21F, 0x3FA9C660, 0x3FE09F4C, 0x3FC87CC6, 0x3FD97D9B, 0x3FCC1872,
    0x3FF0CABB, 0x3FE29C34, 0x3FE1231B, 0x3FD77794, 0x3FE2CF67, 0x3FF11498, 0x4002633A, 0x3FF60038,
    0x3FF17A1F, 0x3FFC7C51, 0x3FFB2B1F, 0x3FED9AF7, 0x40022FD3, 0x3FEF94FB, 0x4001EC5B, 0x3FFEAB15,
    0x3FE43ABF, 0x3FE3470D, 0x3FE8F5B4, 0x3FE1D14A, 0x3FE240B9, 0x3FEB6937, 0x3FF77AB0, 0x3FF7DB36,
    0x3FE3D4FB, 0x3FD2C17D, 0x3FE8705E, 0x3FD68A08, 0x3FDF56A1, 0x3FE55CB9, 0x3FD85DCE, 0x3FD6AB4A,
    0x3FB02C78, 0x3FB33330, 0x3FC6787F, 0x3FB94B6B, 0x3FCA6034, 0x3FC074E0, 0x3FD0BC31, 0x3FB33699,
    0x3FD595DC, 0x3FC6C344, 0x3FDE4EA8, 0x3FD39DFE, 0x3FEA6784, 0x3FF34478, 0x3FEAFA04, 0x3FD6143A,
    0x3FF4C15E, 0x3FEDD612, 0x3FE5A07A, 0x3FEE5C60, 0x3FDC1566, 0x3FE54780, 0x3FFD7C1A, 0x3FEF5CE6,
    0x3FD7F3D8, 0x3FD003ED, 0x3FDB3B0F, 0x3FD8659A, 0x3FE61D64, 0x3FDA7365, 0x3FF4CCF5, 0x3FD87C54,
    0x3FC99ADF, 0x3FC3E0AF, 0x3FC5645E, 0x3FE12995, 0x3FEFFD55, 0x3FC41083, 0x3FD33C4E, 0x3FD995B1,
];

const GOLDEN_FC_10X7X4_B2: [u32; 20] = [
    0x3E903AAE, 0x3ED0FA52, 0x3E975A06, 0x3E67A1E5, 0x3EDFEA0C, 0x3EF1153E, 0x3F1B4948, 0x3EBEA7E8,
    0x3F29FF76, 0x3F12E7BA, 0x3E299C3D, 0x3E6736AB, 0x3E806078, 0x3E011EA5, 0x3E560B88, 0x3EB4EA35,
    0x3E967EC6, 0x3EA65A1D, 0x3E85E008, 0x3ECEEDFB,
];

const GOLDEN_FC_10X7X4_B2_BWD: [u32; 14] = [
    0x3F112379, 0x3EFE4C95, 0x3ED78E65, 0x3EF7530D, 0x3EFA52C8, 0x3EE357F2, 0x3F1EFFF8, 0x3EB27257,
    0x3EB6AF5C, 0x3E9AC0D1, 0x3E1C4408, 0x3EA7BF9E, 0x3E9B5E68, 0x3EB27D48,
];

const GOLDEN_CONV_S1: [u32; 96] = [
    0x3E0E8CF5, 0xBD350BF1, 0xBD9461C7, 0xBDD8E088, 0x3E00AAE3, 0x3E8C4785, 0xBF06FCCE, 0x3E5FCF3D,
    0x3D57BA9C, 0x3D483A64, 0xBE3D0B77, 0xBCDABE80, 0x3BA6B1C4, 0x3D90DE8E, 0x3E37A9BE, 0x3E5775A7,
    0x3C8D6B98, 0xBCB42F3E, 0xBE6F5278, 0x3DAD09AE, 0x3E2FC2D5, 0x3E18A78E, 0xBD1C0E98, 0x3EC0C3A6,
    0x3E1071EC, 0x3E8CF832, 0xBE13363D, 0xBE73CFC8, 0xBD8A2CC7, 0x3EC05D64, 0x3D848B3A, 0x3E7C41C5,
    0x3D09DF74, 0xBD3E6633, 0xBD664D54, 0xBDE0CD2A, 0x3E845A0C, 0xBE16524A, 0x3EDCEDD9, 0xBEB10794,
    0x3E4F1DDB, 0x3E3C3C66, 0x3D80CCA8, 0xBE34B4C6, 0x3E417929, 0x3E333006, 0x3DC0B110, 0xBC8BC3C4,
    0x3E6BED2B, 0xBD855911, 0xBDEE767B, 0x3D3476B9, 0x3DB892CC, 0x3DE1F87C, 0xBDA83FDC, 0x3E3A1974,
    0xBB247BC0, 0x3D5E771E, 0x3E212F17, 0x3CD2E240, 0x3EC24EDA, 0x3E826A49, 0xBEB093BE, 0x3EDD368A,
    0x3BCC48A0, 0xBDF4AD07, 0xBE4B1162, 0xBCAACBEA, 0x3ED8E09D, 0xBDA3FF0E, 0xBEFC2111, 0x3E342F20,
    0x3EF1ADC2, 0xBE6CFB64, 0xBE56419D, 0x3E5DE52C, 0x3DD930CE, 0xBDAA3267, 0x3E7E38B9, 0x3F2D4A93,
    0x3C35C0F2, 0x3D24E6F0, 0xBCBCE17E, 0xBE8828D2, 0x3E3F8E93, 0xBE747D39, 0x3E9AC622, 0xBEB84EB1,
    0x3E8648A5, 0xBD0AF7D8, 0x3E1EC6F8, 0xBE2EB09F, 0x3C750230, 0x3E5AFC2E, 0x3EE30029, 0xBDE37780,
];

/// The deterministic input generator the capture run used.
fn seeded(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.5
        })
        .collect()
}

fn assert_bits(tag: &str, got: &[f32], want: &[u32]) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            *w,
            "{tag}[{i}]: got {g} (0x{:08X}), golden 0x{w:08X}",
            g.to_bits()
        );
    }
}

fn fc_case(m: usize, n: usize, k: usize, batch: usize, seed: u64, fwd: &[u32], bwd: &[u32]) {
    let p = m.div_ceil(k);
    let q = n.div_ceil(k);
    let w = BlockCirculantMatrix::from_weights(m, n, k, &seeded(p * q * k, seed)).unwrap();
    let x = seeded(batch * n, seed ^ 0xA5A5);
    let mut ws = Workspace::new();
    let mut y = vec![0.0f32; batch * m];
    w.forward_batch_into_with_threads(&x, batch, &mut ws, &mut y, 1)
        .unwrap();
    assert_bits("forward", &y, fwd);
    let g = seeded(batch * m, seed ^ 0x5A5A);
    let mut gx = vec![0.0f32; batch * n];
    w.backward_batch_into_with_threads(&g, batch, &mut ws, &mut gx, 1)
        .unwrap();
    assert_bits("backward", &gx, bwd);
}

#[test]
fn fc_apply_is_bit_identical_to_pre_refactor_engine() {
    fc_case(
        24,
        40,
        8,
        3,
        11,
        &GOLDEN_FC_24X40X8_B3,
        &GOLDEN_FC_24X40X8_B3_BWD,
    );
    // Ragged dims: m, n not multiples of k.
    fc_case(
        10,
        7,
        4,
        2,
        22,
        &GOLDEN_FC_10X7X4_B2,
        &GOLDEN_FC_10X7X4_B2_BWD,
    );
}

#[test]
fn conv_stride1_is_bit_identical_to_pre_refactor_engine() {
    let mut rng = circnn_tensor::init::seeded_rng(33);
    let mut conv = CirculantConv2d::new(&mut rng, 2, 3, 3, 1, 1, 2).unwrap();
    conv.set_training(false);
    let x = circnn_tensor::Tensor::from_vec(seeded(2 * 2 * 4 * 4, 44), &[2, 2, 4, 4]);
    let mut cws = ConvWorkspace::new();
    let mut out = vec![0.0f32; 2 * 3 * 4 * 4];
    conv.infer_batch_into(&x, &mut cws, &mut out, 1).unwrap();
    assert_bits("conv_s1", &out, &GOLDEN_CONV_S1);
}

// The vectors below were captured at the commit before the i16 applies
// were folded into the f32 families' pipelines (one pipeline per family,
// generic over the datapath precision), by running these exact cases: i16
// FC with ragged m and n and a bias, i16 conv at stride 1 and 2, both
// recurrent steps, and the biased f32 FC layer. Every f32 and i16 FC, conv
// and RNN output must keep those bits.

const GOLDEN_Q16_FC_10X13X4_B2_BIAS: [u32; 20] = [
    0x3EDF6886, 0x3F509DA6, 0x3F03D4FC, 0x3F46F408, 0x3ED4299A, 0x3F665393, 0x3F218CF0, 0x3F578786,
    0x3F90B298, 0x3F34E4A2, 0x3F300724, 0x3F8306ED, 0x3F551465, 0x3F69EECA, 0x3F24FDD7, 0x3F813C63,
    0x3F54642C, 0x3F82AB59, 0x3FA7FC2D, 0x3F4B84E2,
];

const GOLDEN_FC_10X13X4_B2_BIAS: [u32; 20] = [
    0x3EDFBAB2, 0x3F5095E8, 0x3F040AB4, 0x3F46F3C7, 0x3ED4D2A8, 0x3F6662E2, 0x3F21B952, 0x3F579698,
    0x3F90B15E, 0x3F352CAE, 0x3F2FC466, 0x3F82CF98, 0x3F54C813, 0x3F697D64, 0x3F24C1E3, 0x3F810231,
    0x3F53F82C, 0x3F828DF5, 0x3FA7BB81, 0x3F4B3464,
];

const GOLDEN_Q16_CONV_S1: [u32; 96] = [
    0xBEADB19E, 0xBD726B20, 0xBE137D42, 0xBD0095A8, 0x3CEFEF00, 0x3E51DD18, 0x3E9A2AF4, 0x3D590490,
    0xBE478B78, 0x3D6469E0, 0x3F16CE46, 0x3E92A15E, 0xBE2D9928, 0x3D508510, 0xBEA62473, 0x3D79BAF0,
    0xBCB27D90, 0x3EAEC3BF, 0x3D9F51A0, 0x3E73C514, 0x3D749858, 0x3F1A8EAC, 0x3F80E4A6, 0x3EB1E46D,
    0x3EA80C11, 0x3E76DB00, 0x3F095BE0, 0x3EF9C371, 0xBE14677E, 0x3F228CAE, 0x3DCA8960, 0x3DC4FC74,
    0xBD174DE8, 0x3E702D38, 0x3E827C12, 0x3BA74900, 0x3E9AEFE2, 0x3EA0F5FA, 0xBECB2367, 0xBE98149B,
    0xBE1C31DC, 0x3EF3336C, 0x3F099E01, 0xBEF799C2, 0x3E0DBF50, 0xBE0252FC, 0x3EE2215E, 0x3E7DFBB6,
    0xBE7CFA5A, 0x3E7E3688, 0xBCAE1A30, 0xBE0646CC, 0x3E04D728, 0x3EEA9470, 0x3F08950C, 0xBE38B6EC,
    0x3D1381C0, 0x3E79A364, 0x3E02B190, 0xBD2ECA40, 0xBE2D7CB8, 0xBD59FEA8, 0x3D17E780, 0x3C0ADC40,
    0xBD393FA8, 0x3EECAD4F, 0x3ED0CE27, 0xBCD2A230, 0x3ED41F87, 0x3F11AA7E, 0x3F21A122, 0x3E0E0872,
    0x3E893053, 0x3EE15051, 0x3EC98137, 0x3EB52C6B, 0x3E3130F2, 0x3E7C0010, 0x3E1A177E, 0x3DC52610,
    0x3F5272D9, 0x3DA283A0, 0x3E2E7124, 0x3C0FB740, 0x3D95AC9C, 0xBBEB0D00, 0xBE51B3CF, 0xBF08A608,
    0x3D1F26F0, 0x3ECDDB26, 0x3DF0C2F0, 0xBE38AEA6, 0xBCA4A350, 0x3E5111A6, 0x3E5C9832, 0x3AB07E00,
];

const GOLDEN_Q16_CONV_S2: [u32; 54] = [
    0xBE929579, 0xBEE960F4, 0xBF1FF52F, 0xBEA2DC13, 0xBF0293B5, 0xBF0DD1A2, 0xBE99389D, 0xBEBE0F95,
    0xBF26092E, 0xBE407E3E, 0xBEE12865, 0xBEE9FA98, 0xBDCBAB08, 0xBF0019FE, 0xBECCCC5A, 0xBE8B7B3D,
    0xBEEEEE9C, 0xBF1AAADF, 0xBE5B035F, 0xBE7C49F2, 0xBF022732, 0x3EC8958C, 0xBE8644BB, 0xBF02EC49,
    0xBE0AE6A3, 0x3CACBDC0, 0xBF1EF43F, 0xBF009207, 0xBF53879E, 0xBF0E62C4, 0xBEED6632, 0xBF083C1A,
    0xBF091F36, 0xBEDB58D5, 0xBF192532, 0xBF3DB9B1, 0xBDD31112, 0xBE4AC125, 0xBE922870, 0xBDA05694,
    0xBE8CD55C, 0xBEA1A536, 0xBE2F4F04, 0xBF09FE12, 0xBF0959F3, 0xBE5CD657, 0xBEFDCA97, 0xBF0590AB,
    0x3E4D2FAC, 0xBEA92EEA, 0xBE67D15E, 0x3D852D80, 0xBF2E380A, 0xBEA930ED,
];

const GOLDEN_RNN_6X12X4_B2: [u32; 24] = [
    0xBE710085, 0xBE5C1FDA, 0xBC242D00, 0xBF13FAD9, 0xBD2CFB49, 0xBECAE497, 0x3E835214, 0xBE9D5C0B,
    0xBE6A7B18, 0xBD903ED0, 0xBF0937CD, 0xBEAB0476, 0xBEDE75D9, 0x3D82C990, 0xBE10484B, 0xBF07235C,
    0xBEBE716B, 0xBDC2DF6C, 0xBD02AB09, 0xBE64AD5B, 0xBEB20C9C, 0x3DE8F7A6, 0xBE58B9C5, 0xBEB5F6C7,
];

const GOLDEN_Q16_RNN_6X12X4_B2: [u32; 24] = [
    0xBE7075CD, 0xBE5A252E, 0xBC2EBAD5, 0xBF143647, 0xBD2DBD24, 0xBECA093C, 0x3E82BDDB, 0xBE9DA09C,
    0xBE672BC6, 0xBD8ED24A, 0xBF095409, 0xBEAB3E98, 0xBEDE1186, 0x3D7E185D, 0xBE1122B8, 0xBF06EFCA,
    0xBEBE4112, 0xBDC40F8F, 0xBCF4F7DC, 0xBE64F6D3, 0xBEB2CA8F, 0x3DE6CAF3, 0xBE57C400, 0xBEB5957F,
];

/// A ragged `13 → 10`, `k = 4` FC layer with a bias at B = 2: its i16
/// twin's output and its own f32 output.
fn fc_layer_outputs() -> (Vec<f32>, Vec<f32>) {
    let (m, n, k, batch) = (10usize, 13usize, 4usize, 2usize);
    let w = seeded(m.div_ceil(k) * n.div_ceil(k) * k, 51);
    let mut layer = CirculantLinear::from_weights(n, m, k, &w, seeded(m, 52)).unwrap();
    layer.set_training(false);
    let x = seeded(batch * n, 53);
    let q = layer.quantize(QuantConfig::default()).unwrap();
    let mut y16 = vec![0.0f32; batch * m];
    q.infer_batch_into(&x, batch, &mut QuantWorkspace::new(), &mut y16, 1)
        .unwrap();
    let x = Tensor::from_vec(x, &[batch, n]);
    let y32 = layer.infer_batch(&x, &mut InferScratch::new());
    (y16, y32.data().to_vec())
}

/// The i16 conv (2 → 3 channels, 3×3, pad 1, k = 2, with a bias, B = 2) at
/// `stride`, over 4×4 inputs at stride 1 and 5×5 at stride 2.
fn q16_conv_output(stride: usize) -> Vec<f32> {
    let hw = 3 + stride;
    let mut rng = circnn_tensor::init::seeded_rng(60 + stride as u64);
    let mut conv = CirculantConv2d::new(&mut rng, 2, 3, 3, stride, 1, 2).unwrap();
    let bias = seeded(3, 61);
    let mut group = 0;
    conv.visit_params(&mut |p, _| {
        if group == 1 {
            p.copy_from_slice(&bias);
        }
        group += 1;
    });
    conv.set_training(false);
    let q = conv.quantize(QuantConfig::default()).unwrap();
    let x = Tensor::from_vec(seeded(2 * 2 * hw * hw, 62), &[2, 2, hw, hw]);
    let o = (hw + 2 - 3) / stride + 1;
    let mut out = vec![0.0f32; 2 * 3 * o * o];
    q.infer_batch_into(&x, &mut QuantWorkspace::new(), &mut out, 1)
        .unwrap();
    out
}

/// One step of a `6 → 12`, `k = 4` recurrent cell at B = 2: the f32 step
/// (`tanh` epilogue) and its i16 twin's.
fn rnn_step_outputs() -> (Vec<f32>, Vec<f32>) {
    let mut rng = circnn_tensor::init::seeded_rng(70);
    let cell = CirculantRnnCell::new(&mut rng, 6, 12, 4, 0.9).unwrap();
    let (x, h) = (seeded(2 * 6, 71), seeded(2 * 12, 72));
    let (mut y32, mut y16) = (vec![0.0f32; 24], vec![0.0f32; 24]);
    let mut ws = RecurrentWorkspace::new();
    cell.step_batch_into_with_threads(&x, &h, 2, &mut ws, &mut y32, 1)
        .unwrap();
    let q = cell.quantize(QuantConfig::default()).unwrap();
    q.step_batch_into(&x, &h, 2, &mut QuantWorkspace::new(), &mut y16, 1)
        .unwrap();
    (y32, y16)
}

#[test]
fn fc_layers_keep_the_per_precision_pipelines_bits() {
    let (y16, y32) = fc_layer_outputs();
    assert_bits("q16_fc", &y16, &GOLDEN_Q16_FC_10X13X4_B2_BIAS);
    assert_bits("fc_bias", &y32, &GOLDEN_FC_10X13X4_B2_BIAS);
}

#[test]
fn q16_conv_keeps_the_per_precision_pipelines_bits() {
    assert_bits("q16_conv_s1", &q16_conv_output(1), &GOLDEN_Q16_CONV_S1);
    assert_bits("q16_conv_s2", &q16_conv_output(2), &GOLDEN_Q16_CONV_S2);
}

#[test]
fn rnn_steps_keep_the_per_precision_pipelines_bits() {
    let (y32, y16) = rnn_step_outputs();
    assert_bits("rnn", &y32, &GOLDEN_RNN_6X12X4_B2);
    assert_bits("q16_rnn", &y16, &GOLDEN_Q16_RNN_6X12X4_B2);
}
