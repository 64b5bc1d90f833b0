#include "runner/sweep.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/config_io.hh"
#include "pipeline/config_io.hh"

namespace siwi::runner {

bool
machineApplyKeyValue(MachineSpec *m, std::string_view kv,
                     std::string *err)
{
    // Accept "l2.slices=4" for "l2_slices=4": the dotted spelling
    // reads naturally on a command line, the flat one is the
    // canonical field-table key.
    std::string norm(kv);
    size_t eq = norm.find('=');
    size_t key_end = eq == std::string::npos ? norm.size() : eq;
    std::replace(norm.begin(), norm.begin() + long(key_end), '.',
                 '_');
    std::string_view key = std::string_view(norm).substr(0,
                                                         key_end);

    if (!findField(core::gpuConfigFields(), key))
        return pipeline::smConfigApplyKeyValue(norm, &m->config,
                                               err);
    if (key == "num_sms") {
        if (err)
            *err = "'num_sms' is not a machine override: the SM "
                   "count is the sweep's sms axis, and the backend "
                   "choice is derived from it";
        return false;
    }
    // Validate the value now (on a scratch chip), record the
    // normalized override for application after GpuConfig::make().
    core::GpuConfig scratch;
    if (!core::gpuConfigApplyKeyValue(norm, &scratch, err))
        return false;
    m->chip_sets.push_back(std::move(norm));
    return true;
}

bool
machineApplyJson(MachineSpec *m, const Json &set,
                 std::string *err)
{
    if (!set.isObject()) {
        if (err)
            *err = "'set' must be a JSON object";
        return false;
    }
    for (const Json::Member &member : set.obj()) {
        // Check the value's JSON type against the key's field, as
        // configApplyJson does, before it becomes key=value text.
        // An unknown key is named here, whole: as text, a key
        // holding '=' would split at the wrong place.
        std::string key = member.first;
        std::replace(key.begin(), key.end(), '.', '_');
        std::string val;
        bool typed = false;
        if (const auto *f = findField(pipeline::smConfigFields(), key))
            typed = configJsonText(*f, member.second, &val, err);
        else if (const auto *g = findField(core::gpuConfigFields(), key))
            typed = configJsonText(*g, member.second, &val, err);
        else if (err)
            *err = "unknown config key '" + key + "'";
        if (!typed || !machineApplyKeyValue(m, member.first + "=" + val, err))
            return false;
    }
    return true;
}

namespace {

bool
machineNamed(const MachineSpec &m, std::string_view name)
{
    return configNameEquals(m.name, name);
}

bool
workloadNamed(const workloads::Workload *w, std::string_view name)
{
    return name == w->name();
}

} // namespace

void
SweepSpec::filterMachines(const std::vector<std::string> &keep)
{
    if (keep.empty())
        return;
    std::erase_if(machines, [&](const MachineSpec &m) {
        return std::ranges::none_of(keep, [&](const std::string &k) {
            return machineNamed(m, k);
        });
    });
}

void
SweepSpec::filterWorkloads(const std::vector<std::string> &keep)
{
    if (keep.empty())
        return;
    std::erase_if(wls, [&](const workloads::Workload *w) {
        return std::ranges::none_of(keep, [&](const std::string &k) {
            return workloadNamed(w, k);
        });
    });
}

std::string
narrowSweeps(std::vector<SweepSpec> *sweeps,
             const std::vector<std::string> &machines,
             const std::vector<std::string> &workloads)
{
    // A value that matches nothing is a typo, never a silent
    // no-op: check each against the whole spec before filtering.
    for (const std::string &name : machines) {
        bool found = false;
        for (const SweepSpec &s : *sweeps) {
            for (const MachineSpec &m : s.machines)
                found = found || machineNamed(m, name);
        }
        if (!found)
            return "machine '" + name + "' is in no sweep";
    }
    for (const std::string &name : workloads) {
        bool found = false;
        for (const SweepSpec &s : *sweeps) {
            for (const workloads::Workload *w : s.wls)
                found = found || workloadNamed(w, name);
        }
        if (!found)
            return "workload '" + name + "' is in no sweep";
    }
    for (SweepSpec &s : *sweeps) {
        s.filterMachines(machines);
        s.filterWorkloads(workloads);
    }
    std::erase_if(*sweeps, [](const SweepSpec &s) {
        return s.cellCount() == 0;
    });
    if (sweeps->empty())
        return "selection matches no cells";
    return {};
}

void
SweepSpec::dedupeMachines()
{
    std::vector<MachineSpec> unique;
    for (MachineSpec &m : machines) {
        const MachineSpec *dup = nullptr;
        for (const MachineSpec &u : unique) {
            if (u.config == m.config &&
                u.chip_sets == m.chip_sets) {
                dup = &u;
                break;
            }
        }
        if (dup) {
            warn("sweep '", name, "': machines '", dup->name,
                 "' and '", m.name,
                 "' resolve to the same configuration; dropping "
                 "'", m.name, "'");
        } else {
            unique.push_back(std::move(m));
        }
    }
    machines = std::move(unique);
}

frontend::SchedPolicyKind
effectivePolicy(const SweepSpec &sweep, size_t machine,
                size_t policy_idx)
{
    frontend::SchedPolicyKind pol = sweep.policyAt(policy_idx);
    if (pol == frontend::SchedPolicyKind::OldestFirst)
        return sweep.machines[machine].config.sched_policy;
    return pol;
}

std::string
cellMachineLabel(const std::string &machine,
                 frontend::SchedPolicyKind policy,
                 unsigned num_sms)
{
    std::string label = machine;
    if (policy != frontend::SchedPolicyKind::OldestFirst) {
        label += '/';
        label += frontend::schedPolicyName(policy);
    }
    if (num_sms != 1) {
        label += '@';
        label += std::to_string(num_sms);
        label += "sm";
    }
    return label;
}

core::GpuConfig
resolvedCellConfig(const SweepSpec &sweep, size_t machine,
                   size_t sms_idx, size_t policy_idx)
{
    pipeline::SMConfig cfg = sweep.machines[machine].config;
    cfg.sched_policy = effectivePolicy(sweep, machine,
                                       policy_idx);
    core::GpuConfig chip = core::GpuConfig::make(
        cfg, sweep.smsAt(sms_idx));
    for (const std::string &kv :
         sweep.machines[machine].chip_sets) {
        std::string err;
        bool ok = core::gpuConfigApplyKeyValue(kv, &chip, &err);
        // chip_sets entries were validated when recorded; only a
        // programming error gets here.
        siwi_assert(ok, err);
    }
    return chip;
}

namespace {

/** The axis step of checkSweep(). */
std::string
checkAxes(const SweepSpec &s)
{
    for (size_t i = 0; i < s.sms.size(); ++i) {
        for (size_t j = i + 1; j < s.sms.size(); ++j) {
            if (s.sms[i] == s.sms[j])
                return "sweep '" + s.name +
                       "': duplicate sms entry " +
                       std::to_string(s.sms[i]);
        }
    }
    for (size_t m = 0; m < s.machines.size(); ++m) {
        for (size_t i = 0; i < s.policies.size(); ++i) {
            for (size_t j = i + 1; j < s.policies.size(); ++j) {
                if (effectivePolicy(s, m, i) ==
                    effectivePolicy(s, m, j))
                    return "sweep '" + s.name +
                           "': machine '" + s.machines[m].name +
                           "' runs policy '" +
                           frontend::schedPolicyName(
                               effectivePolicy(s, m, i)) +
                           "' twice (the oldest axis entry "
                           "resolves to the machine's own "
                           "sched_policy)";
            }
        }
    }
    return {};
}

/** The resolved-chip step of checkSweep(). */
std::string
checkResolvedConfigs(const SweepSpec &sweep)
{
    for (size_t m = 0; m < sweep.machines.size(); ++m) {
        for (size_t n = 0; n < std::max<size_t>(
                                   sweep.sms.size(), 1);
             ++n) {
            std::string inv =
                resolvedCellConfig(sweep, m, n, 0)
                    .checkInvariants();
            if (!inv.empty())
                return "sweep '" + sweep.name + "' machine '" +
                       sweep.machines[m].name + "' @" +
                       std::to_string(sweep.smsAt(n)) +
                       "sm: " + inv;
        }
    }
    return {};
}

} // namespace

std::string
checkSweep(const SweepSpec &sweep)
{
    for (const MachineSpec &m : sweep.machines) {
        std::string inv = m.config.checkInvariants();
        if (!inv.empty())
            return "sweep '" + sweep.name + "': machine '" + m.name +
                   "': " + inv;
    }
    std::string axes = checkAxes(sweep);
    if (!axes.empty())
        return axes;
    return checkResolvedConfigs(sweep);
}

std::vector<CellSpec>
expandCells(const std::vector<SweepSpec> &sweeps)
{
    std::vector<CellSpec> cells;
    for (size_t s = 0; s < sweeps.size(); ++s) {
        for (size_t w = 0; w < sweeps[s].wls.size(); ++w) {
            for (size_t n = 0; n < sweeps[s].sms.size(); ++n) {
                for (size_t p = 0;
                     p < sweeps[s].policies.size(); ++p) {
                    for (size_t m = 0;
                         m < sweeps[s].machines.size(); ++m)
                        cells.push_back({s, m, w, n, p});
                }
            }
        }
    }
    return cells;
}

} // namespace siwi::runner
