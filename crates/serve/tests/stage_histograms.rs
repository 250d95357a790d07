//! The service's `serve.stage.*` histograms cover every scheme, not only
//! the TT/BBIT pipeline. The observability registry and its mode are
//! process-global, so this check lives in a test binary of its own: no
//! concurrently running test can add samples to the histograms it counts.

use imt_core::scheme::SchemeSpec;
use imt_core::EncoderConfig;
use imt_kernels::Kernel;
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};

#[test]
fn one_gray_request_adds_one_sample_to_each_stage_histogram() {
    imt_obs::set_mode(imt_obs::Mode::Report);
    let encode = imt_obs::registry::histogram("serve.stage.encode_ns");
    let eval = imt_obs::registry::histogram("serve.stage.eval_ns");
    let before = (encode.count(), eval.count());

    let service = Service::start(ServiceConfig::default().with_workers(1));
    let request = Request::new(Kernel::Tri.test_spec(), EncoderConfig::default())
        .with_scheme(SchemeSpec::Gray);
    let response = service.submit(request).expect("queue open").wait();
    service.shutdown();
    imt_obs::set_mode(imt_obs::Mode::Off);

    response.outcome.expect("gray serves tri");
    assert_eq!(encode.count(), before.0 + 1, "serve.stage.encode_ns");
    assert_eq!(eval.count(), before.1 + 1, "serve.stage.eval_ns");
}
