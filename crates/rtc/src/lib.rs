//! # rtc-sim — a WebRTC-faithful endpoint model
//!
//! Implements the application-layer half of the paper's measurement stack:
//! the media pipeline and Google Congestion Control, instrumented to the
//! depth of the paper's custom libwebrtc client (50 ms stats including GCC
//! internals — §3: "the first work to instrument WebRTC to this level").
//!
//! | Paper mechanism | Module |
//! |---|---|
//! | GCC delay-based estimator, trendline, adaptive threshold (§6.2) | [`gcc::trendline`] |
//! | AIMD target-rate control, slow/fast recovery (§6.2)             | [`gcc`] (`gcc::aimd`) |
//! | Loss-based estimator (§6.2)                                     | [`gcc::loss`] |
//! | Acknowledged-bitrate estimator (§6.2)                           | [`gcc`] (`gcc::ack_bitrate`) |
//! | Congestion-window pushback (§6.3, Fig. 23)                      | [`gcc::pushback`] |
//! | Adaptive jitter buffer, freezes, concealment (§6.1)             | [`jitter`] |
//! | Encoder ladder: resolution/frame-rate adaptation                | [`encoder`] |
//! | Pacer (burst shaping that meets UL scheduling in Fig. 14)       | [`pacer`] |
//! | RTCP transport feedback + receiver reports (§6.3)               | [`feedback`] |
//! | Endpoint composition + 50 ms stats                              | [`endpoint`] |

pub mod encoder;
pub mod endpoint;
pub mod feedback;
pub mod gcc;
pub mod jitter;
pub mod pacer;

pub use encoder::EncoderConfig;
pub use endpoint::{
    MediaReceiver, MediaSender, OutgoingPacket, PacketPayload, RtcEndpoint, SenderConfig,
};
pub use feedback::{ArrivalEntry, ReceiverReport, TransportFeedback};
pub use gcc::{FeedbackEntry, SenderCc};
pub use jitter::{AudioJitterBuffer, PlayoutDelayEstimator, VideoJitterBuffer};
pub use pacer::{PacedPacket, Pacer, SentPacket};
