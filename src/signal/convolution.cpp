#include "signal/convolution.hpp"

#include "foundation/check.hpp"

namespace illixr {

std::vector<double>
convolveDirect(const std::vector<double> &x, const std::vector<double> &h)
{
    if (x.empty() || h.empty())
        return {};
    std::vector<double> y(x.size() + h.size() - 1, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = 0; j < h.size(); ++j)
            y[i + j] += x[i] * h[j];
    }
    return y;
}

std::vector<double>
convolveFft(const std::vector<double> &x, const std::vector<double> &h)
{
    if (x.empty() || h.empty())
        return {};
    const std::size_t out_len = x.size() + h.size() - 1;
    const std::size_t n = nextPowerOfTwo(out_len);
    std::vector<Complex> xf(n), hf(n);
    for (std::size_t i = 0; i < x.size(); ++i)
        xf[i] = Complex(x[i], 0.0);
    for (std::size_t i = 0; i < h.size(); ++i)
        hf[i] = Complex(h[i], 0.0);
    fft(xf, false);
    fft(hf, false);
    for (std::size_t i = 0; i < n; ++i)
        xf[i] *= hf[i];
    fft(xf, true);
    std::vector<double> y(out_len);
    for (std::size_t i = 0; i < out_len; ++i)
        y[i] = xf[i].real();
    return y;
}

FrequencyDomainFilter::FrequencyDomainFilter(
    const std::vector<double> &impulse_response, std::size_t block_size)
    : blockSize_(block_size)
{
    ILLIXR_CHECK(block_size > 0 && !impulse_response.empty(),
                 "FrequencyDomainFilter: empty block or impulse response");
    fftSize_ = nextPowerOfTwo(block_size + impulse_response.size() - 1);
    filterSpectrum_.assign(fftSize_, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < impulse_response.size(); ++i)
        filterSpectrum_[i] = Complex(impulse_response[i], 0.0);
    fft(filterSpectrum_, false);
    overlap_.assign(fftSize_ - block_size, 0.0);
}

std::vector<double>
FrequencyDomainFilter::process(const std::vector<double> &block)
{
    ILLIXR_CHECK(block.size() == blockSize_,
                 "FrequencyDomainFilter::process: block size mismatch");
    std::vector<Complex> buf(fftSize_, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < blockSize_; ++i)
        buf[i] = Complex(block[i], 0.0);
    fft(buf, false);
    for (std::size_t i = 0; i < fftSize_; ++i)
        buf[i] *= filterSpectrum_[i];
    fft(buf, true);

    std::vector<double> out(blockSize_);
    for (std::size_t i = 0; i < blockSize_; ++i) {
        double v = buf[i].real();
        if (i < overlap_.size())
            v += overlap_[i];
        out[i] = v;
    }
    // Carry the tail (everything past the block) to the next call.
    std::vector<double> next_overlap(fftSize_ - blockSize_, 0.0);
    for (std::size_t i = 0; i < next_overlap.size(); ++i) {
        double v = buf[blockSize_ + i].real();
        if (blockSize_ + i < overlap_.size())
            v += overlap_[blockSize_ + i];
        next_overlap[i] = v;
    }
    overlap_ = std::move(next_overlap);
    return out;
}

void
FrequencyDomainFilter::reset()
{
    overlap_.assign(overlap_.size(), 0.0);
}

} // namespace illixr
