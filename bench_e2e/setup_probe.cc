/**
 * @file
 * Set-up probe of the end-to-end benchmark.
 *
 * Usage: gest_setup_probe <config.xml>
 *
 * Does the work `gest run` does before its first generation, and
 * nothing else: load and parse the configuration, register the bundled
 * classes, create and initialise the measurement and the fitness, make
 * one measurement clone per evaluation thread and run one measure() of
 * a one-instruction body on each clone, which sizes the clone's scratch
 * buffers the way a worker's first evaluation does. run.py times this
 * process from spawn to exit and reports the median as setup_s.
 */

#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "util/random.hh"

int
main(int argc, char** argv)
{
    using namespace gest;
    if (argc != 2) {
        std::fprintf(stderr, "usage: gest_setup_probe <config.xml>\n");
        return 2;
    }
    try {
        const config::RunConfig cfg = config::loadConfig(argv[1]);
        config::registerBuiltins();
        std::unique_ptr<measure::Measurement> measurement =
            measure::MeasurementRegistry::instance().create(
                cfg.measurementClass, cfg.library);
        measurement->init(cfg.measurementConfig);
        std::unique_ptr<fitness::Fitness> fit =
            fitness::FitnessRegistry::instance().create(cfg.fitnessClass);
        fit->init(cfg.fitnessConfig);

        Rng rng(cfg.ga.seed);
        const std::vector<isa::InstructionInstance> body{
            cfg.library.randomInstance(rng)};
        std::vector<std::unique_ptr<measure::Measurement>> clones;
        for (int worker = 0; worker < cfg.ga.threads; ++worker) {
            clones.push_back(measurement->clone());
            if (!clones.back()) {
                std::fprintf(stderr, "measurement '%s' is not cloneable\n",
                             cfg.measurementClass.c_str());
                return 1;
            }
            clones.back()->measure(body);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gest_setup_probe: %s\n", e.what());
        return 1;
    }
    return 0;
}
