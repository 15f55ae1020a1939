#include "eval/harness.h"

#include <cmath>

#include "analysis/acyclic.h"

namespace manta {

namespace {

PreparedProject
prepare(std::string name, int kloc, GeneratedProgram prog)
{
    PreparedProject project;
    project.name = std::move(name);
    project.kloc = kloc;
    project.prog = std::move(prog);
    makeAcyclic(*project.prog.module);
    project.analyzer = std::make_unique<MantaAnalyzer>(
        *project.prog.module, HybridConfig::full());
    return project;
}

} // namespace

PreparedProject
prepareProject(const ProjectProfile &profile)
{
    return prepare(profile.name, profile.kloc, buildProject(profile));
}

PreparedProject
prepareFirmware(const FirmwareProfile &profile)
{
    return prepare(profile.name, 0, buildFirmware(profile));
}

InferenceResult
oracleInference(PreparedProject &project)
{
    return InferenceResult::fromTypeMap(project.module(),
                                        project.truth().valueTypes);
}

DirtyModel
trainDirtyModel(int training_programs)
{
    DirtyModel model;
    for (int i = 0; i < training_programs; ++i) {
        GenConfig cfg;
        cfg.seed = 777000 + i;   // disjoint from all evaluation seeds
        cfg.numFunctions = 40;
        cfg.realBugRate = 0.02;
        cfg.decoyRate = 0.03;
        GeneratedProgram prog = generateProgram(cfg);
        makeAcyclic(*prog.module);
        model.train(*prog.module, prog.truth);
    }
    return model;
}

std::vector<BugReport>
detectBugs(PreparedProject &project, const InferenceResult *inference)
{
    if (inference)
        pruneInfeasibleDeps(project.analyzer->ddg(), *inference);
    const BugDetector detector(*project.analyzer, inference);
    auto reports = detector.runAll();
    project.analyzer->ddg().resetPruning();
    return reports;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(std::max(v, 1e-9));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace manta
